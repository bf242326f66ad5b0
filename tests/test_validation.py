"""Public constructors reject non-finite input instead of running with it.

A NaN dark count would make every click probability NaN, so the
detectors would silently never fire; NaN drift or dither would poison the
phase history the same way.
"""

import math

import numpy as np
import pytest

from udiscrim import simulate_drift_paths
from udiscrim.detection import (
    DetectorModel,
    InterferenceModel,
    analytic_nstate_success,
    analytic_p1,
    analytic_p2,
    click_probability,
    nstate_success_from_distances,
    port_mean_photons,
)
from udiscrim.drift import (
    MAX_PROBE_TRIALS,
    DriftModel,
    ProbeModel,
    StabilizerConfig,
    evolve,
    fringe_visibility_equivalent,
    stabilize,
)
from udiscrim.montecarlo import (
    MAX_BLOCKS,
    MAX_INTENSITY,
    MAX_TRIALS_PER_BLOCK,
    Counts,
    ExperimentConfig,
    binomial_stderr,
    click_matrix,
    fractions_from_blocks,
    run_experiment,
    run_trial,
)
from udiscrim.network import (
    NStatePlan,
    SplitterPlan,
    detector_amplitudes,
    nstate_port_contributions,
    port_contributions,
)
from udiscrim.optics import BeamSplitter, from_intensity_phase
from udiscrim.output import svg_bytes
from udiscrim.sweeps import ScenarioParams, SweepSpec, Table, nstate_report, ring_programs

RING = (1.0 + 0j, 1j, -1.0 + 0j)


def _config(priors, programs=(1.0 + 0j, -1.0 + 0j), detectors=1, **sizes):
    return ExperimentConfig(
        programs=programs,
        plan=SplitterPlan(0.5),
        detectors=(DetectorModel(0.53),) * detectors,
        interference=(InterferenceModel(1.0),),
        priors=priors,
        **sizes,
    )


def _counts(n, trials=4):
    """A block of ``trials`` no-click trials over ``n`` states."""
    return Counts((0,) * n, (0,) * n, 0, trials, trials)


def _probe(**fields):
    return ProbeModel(**{
        "coupling": 1 / 3, "program_intensity": 1.0, "visibility": 0.98,
        "detector": DetectorModel(0.53), **fields,
    })


@pytest.mark.parametrize(
    "build",
    [
        lambda: DetectorModel(0.5, dark_mean=math.nan),
        lambda: DetectorModel(0.5, dark_mean=math.inf),
        lambda: DriftModel(math.nan),
        lambda: DriftModel(math.inf),
        lambda: StabilizerConfig(dither=math.nan),
        lambda: _config((math.nan, 1.0)),
        lambda: _config((1.0, math.nan)),
        lambda: SplitterPlan(math.nan),
    ],
    ids=[
        "dark-nan", "dark-inf", "sigma-nan", "sigma-inf", "dither-nan",
        "prior-nan-first", "prior-nan-last", "t0-nan",
    ],
)
def test_non_finite_input_is_rejected(build):
    with pytest.raises(ValueError):
        build()


# Each message is matched, so that the case fails when its own check is
# deleted even where a later check would still raise.
@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: _config(None, programs=(1.0 + 0j,)), "at least two",
                     id="one-program"),
        pytest.param(lambda: _config((0.5, 0.25, 0.25)), "expected 2 priors", id="priors-length"),
        pytest.param(lambda: _config(None, detectors=3), "expected 1 or 2 detectors",
                     id="three-detectors"),
        pytest.param(lambda: StabilizerConfig(gain=0.0), "gain", id="gain-zero"),
        pytest.param(lambda: StabilizerConfig(gain=1.5), "gain", id="gain-above-one"),
        pytest.param(lambda: StabilizerConfig(gain=math.nan), "gain", id="gain-nan"),
        pytest.param(lambda: nstate_port_contributions(1.0 + 0j, RING, NStatePlan(3), (0.0, 0.0)),
                     "expected 3 phase errors", id="phase-errors-length"),
        # The two-state path takes one phase per loop too: one phase ended
        # in an IndexError, a third was dropped without a word.
        pytest.param(lambda: click_matrix(_config(None), [0.1]),
                     "expected 2 phase errors, got 1", id="click-matrix-one-phase"),
        pytest.param(lambda: click_matrix(_config(None), [0.1, 0.2, 0.3]),
                     "expected 2 phase errors, got 3", id="click-matrix-three-phases"),
        pytest.param(lambda: run_trial(_config(None), 0, [0.1]),
                     "expected 2 phase errors, got 1", id="run-trial-one-phase"),
        pytest.param(lambda: detector_amplitudes(1.0 + 0j, (1.0 + 0j, -1.0 + 0j), SplitterPlan(0.5),
                                                 (0.1, 0.2, 0.3)),
                     "expected 2 phase errors, got 3", id="amplitudes-three-phases"),
        pytest.param(lambda: port_contributions(1.0 + 0j, (1.0 + 0j, -1.0 + 0j), SplitterPlan(0.5),
                                                ()),
                     "expected 2 phase errors, got 0", id="contributions-no-phase"),
        # One call serves both plans; a two-state plan takes two programs.
        pytest.param(lambda: port_contributions(1.0 + 0j, (1.0 + 0j, -1.0 + 0j, 0j),
                                                SplitterPlan(0.5)),
                     "expected 2 program states, got 3", id="contributions-three-programs"),
        # A non-finite phase is named where it enters, not left to surface as
        # a NaN mean photon number in the click law.
        pytest.param(lambda: click_matrix(_config(None), [0.1, math.nan]),
                     r"phase_errors\[1\] must be a finite number, got nan", id="click-matrix-nan"),
        pytest.param(lambda: click_matrix(_config(None), np.array([math.inf, 0.0])),
                     r"phase_errors\[0\] must be a finite number, got inf", id="click-matrix-inf"),
        pytest.param(lambda: run_trial(_config(None), 0, [math.nan, 0.0]),
                     r"phase_errors\[0\] must be a finite number, got nan", id="run-trial-nan"),
        pytest.param(lambda: run_trial(_config(None), 0, [0.0, -math.inf]),
                     r"phase_errors\[1\] must be a finite number, got -inf", id="run-trial-inf"),
        pytest.param(lambda: detector_amplitudes(1.0 + 0j, (1.0 + 0j, -1.0 + 0j), SplitterPlan(0.5),
                                                 (0.1, math.nan)),
                     r"phase_errors\[1\] must be a finite number", id="amplitudes-nan"),
        pytest.param(lambda: detector_amplitudes(1.0 + 0j, (1.0 + 0j, -1.0 + 0j), SplitterPlan(0.5),
                                                 (math.inf, 0.1)),
                     r"phase_errors\[0\] must be a finite number", id="amplitudes-inf"),
        pytest.param(lambda: detector_amplitudes(1.0 + 0j, RING, NStatePlan(3),
                                                 (0.0, 0.0, math.nan)),
                     r"phase_errors\[2\] must be a finite number", id="nstate-amplitudes-nan"),
        pytest.param(lambda: detector_amplitudes(1.0 + 0j, RING, NStatePlan(3),
                                                 (0.0, math.inf, 0.0)),
                     r"phase_errors\[1\] must be a finite number", id="nstate-amplitudes-inf"),
        # A rejected numpy scalar is shown by its Python value, not its repr.
        pytest.param(lambda: DetectorModel(np.float64(math.nan)),
                     r"eta must be a finite number in \[0, 1\], got nan$", id="eta-numpy-nan"),
        pytest.param(lambda: detector_amplitudes(1.0 + 0j, RING, NStatePlan(3),
                                                 np.array([math.nan, 0.0, 0.0])),
                     r"phase_errors\[0\] must be a finite number, got nan$",
                     id="nstate-amplitudes-numpy-nan"),
        pytest.param(lambda: nstate_port_contributions(1.0 + 0j, RING, NStatePlan(3),
                                                       (math.nan, 0.0, 0.0)),
                     r"phase_errors\[0\] must be a finite number", id="nstate-contributions-nan"),
        pytest.param(lambda: nstate_port_contributions(1.0 + 0j, RING, NStatePlan(3),
                                                       (0.0, 0.0, -math.inf)),
                     r"phase_errors\[2\] must be a finite number", id="nstate-contributions-inf"),
        # The lock and the drift step name a bad input phase, not the step
        # or the click law it would reach.
        pytest.param(lambda: evolve([math.nan, 0.0], DriftModel(0.1), np.random.default_rng(0)),
                     r"phases\[0\] must be a finite number, got nan", id="evolve-phase-nan"),
        # Without drift the step is skipped, but the input is still checked.
        pytest.param(lambda: evolve([math.nan, 0.0], DriftModel(0.0), np.random.default_rng(0)),
                     r"phases\[0\] must be a finite number, got nan", id="evolve-no-drift-nan"),
        pytest.param(lambda: stabilize([0.0, math.nan], StabilizerConfig(), [_probe()] * 2,
                                       np.random.default_rng(0)),
                     r"phases\[1\] must be a finite number, got nan", id="stabilize-phase-nan"),
        # The detection checks let no NaN through.
        pytest.param(lambda: port_mean_photons(1.0 + 0j, math.nan, InterferenceModel(0.9)),
                     r"incoherent_sum_of_intensities must be a finite number in \[0, inf\], got nan",
                     id="port-photons-nan"),
        pytest.param(lambda: port_mean_photons(1.0 + 0j, -1.0, InterferenceModel(0.9)),
                     r"incoherent_sum_of_intensities must be a finite number in \[0, inf\], "
                     "got -1.0",
                     id="port-photons-negative"),
        pytest.param(lambda: click_probability(math.nan, DetectorModel(0.5)),
                     r"^n must be a finite number in \[0, inf\], got nan$",
                     id="click-probability-nan"),
        pytest.param(lambda: fractions_from_blocks(()), "block_counts is empty",
                     id="fractions-no-blocks"),
        # A block of another state count or of no trials is named, not left
        # to numpy's shape error or to NaN fractions.
        pytest.param(lambda: fractions_from_blocks((_counts(2), _counts(3))),
                     r"^block_counts\[1\] has 3 c_plus and 3 c_minus entries, expected 2 each$",
                     id="fractions-ragged-blocks"),
        pytest.param(lambda: fractions_from_blocks((_counts(2), _counts(2, trials=0))),
                     r"^block_counts\[1\] has c_tot=0: a block needs trials$",
                     id="fractions-empty-block"),
        pytest.param(lambda: fractions_from_blocks((_counts(2, trials=0),)),
                     r"^block_counts\[0\] has c_tot=0", id="fractions-one-empty-block"),
        # The closed forms and the classifier check their inputs like the
        # constructors do.
        pytest.param(lambda: nstate_success_from_distances((), 1, 0.5),
                     "n must be an integer >= 2, got 1", id="distances-n-one"),
        pytest.param(lambda: nstate_success_from_distances((1.0,), 2.5, 0.5),
                     "n must be an integer", id="distances-n-fraction"),
        pytest.param(lambda: nstate_success_from_distances((1.0,), 2, math.nan),
                     r"eta must be a finite number in \[0, 1\], got nan", id="distances-eta-nan"),
        pytest.param(lambda: nstate_success_from_distances((1.0,), 2, 1.5), "eta",
                     id="distances-eta-above-one"),
        pytest.param(lambda: nstate_success_from_distances((math.nan,), 2, 0.5),
                     r"squared_distances\[0\] must be a finite number", id="distance-nan"),
        pytest.param(lambda: nstate_success_from_distances((1.0, -1.0), 3, 0.5),
                     r"squared_distances\[1\] must be a finite number in \[0, inf\]",
                     id="distance-negative"),
        pytest.param(lambda: fringe_visibility_equivalent(math.nan),
                     "phi must be a finite number, got nan", id="visibility-phi-nan"),
        pytest.param(lambda: fringe_visibility_equivalent(math.inf), "phi",
                     id="visibility-phi-inf"),
        # A non-finite amplitude is named where it enters, not returned as
        # NaN port amplitudes or a NaN mean photon number.
        pytest.param(lambda: port_mean_photons(complex(math.nan, 0.0), 1.0, InterferenceModel(0.9)),
                     r"^coherent_sum intensity must be a finite number in \[0, inf\], got nan$",
                     id="coherent-sum-nan"),
        pytest.param(lambda: port_mean_photons(complex(0.0, math.inf), 1.0, InterferenceModel(0.9)),
                     r"^coherent_sum intensity must be a finite number in \[0, inf\], got inf$",
                     id="coherent-sum-inf"),
        pytest.param(lambda: detector_amplitudes(complex(math.nan, 0.0), (1.0 + 0j, -1.0 + 0j),
                                                 SplitterPlan(0.5)),
                     r"^alpha_unknown intensity must be a finite number in \[0, inf\], got nan$",
                     id="amplitudes-unknown-nan"),
        pytest.param(lambda: detector_amplitudes(1.0 + 0j, (1.0 + 0j, complex(0.0, -math.inf)),
                                                 SplitterPlan(0.5)),
                     r"^programs\[1\] intensity must be a finite number in \[0, inf\], got inf$",
                     id="amplitudes-program-inf"),
        pytest.param(lambda: detector_amplitudes(1.0 + 0j, (1.0 + 0j, complex(math.nan, 0.0), 1j),
                                                 NStatePlan(3)),
                     r"^programs\[1\] intensity must be a finite number in \[0, inf\], got nan$",
                     id="nstate-amplitudes-program-nan"),
        pytest.param(lambda: nstate_success_from_distances((1.0, 1.0, 1.0), 3, 0.5),
                     "expected 2 squared distances", id="distances-length"),
        # The two-state closed forms check t0, eta and the squared distance
        # the way nstate_success_from_distances does.
        pytest.param(lambda: analytic_p1(1, -1, math.nan, 0.5),
                     r"t0 must be a finite number in \[0, 1\], got nan", id="analytic-p1-t0-nan"),
        pytest.param(lambda: analytic_p1(1, -1, 3.0, 0.5),
                     r"t0 must be a finite number in \[0, 1\], got 3.0",
                     id="analytic-p1-t0-above-one"),
        pytest.param(lambda: analytic_p1(1, -1, 0.5, math.nan),
                     r"eta2 must be a finite number in \[0, 1\], got nan",
                     id="analytic-p1-eta-nan"),
        pytest.param(lambda: analytic_p2(1, -1, -0.5, 0.5),
                     r"t0 must be a finite number in \[0, 1\], got -0.5",
                     id="analytic-p2-t0-negative"),
        pytest.param(lambda: analytic_p2(1, -1, 0.5, 2.0),
                     r"eta1 must be a finite number in \[0, 1\], got 2.0",
                     id="analytic-p2-eta-above-one"),
        pytest.param(lambda: analytic_p1(complex(math.nan, 0), -1, 0.5, 0.5),
                     r"^alpha_1 intensity must be a finite number in \[0, inf\], got nan$",
                     id="analytic-p1-distance-nan"),
        # A state whose own intensity overflows is named before any distance.
        pytest.param(lambda: analytic_p2(1e200, -1e200, 0.5, 0.5),
                     r"^alpha_1 intensity must be a finite number .* got inf$",
                     id="analytic-p2-distance-inf"),
        # Finite states whose squared distance overflows.
        pytest.param(lambda: analytic_p2(1e154, -1e154, 0.5, 0.5),
                     r"^\|alpha_1 - alpha_2\|\^2 must be a finite number .* got inf$",
                     id="analytic-p2-distance-overflow"),
        # A non-finite state is named by itself; only finite states whose
        # difference overflows are named by the term |programs[j] - programs[k]|^2.
        pytest.param(lambda: analytic_nstate_success((1.0 + 0j, complex(math.nan, 0.0), 1j), 0,
                                                     NStatePlan(3), DetectorModel(0.5)),
                     r"^programs\[1\] intensity must be a finite number in "
                     r"\[0, inf\], got nan$", id="analytic-nstate-program-nan"),
        pytest.param(lambda: analytic_nstate_success((1.0 + 0j, 1j, complex(0.0, math.inf)), 1,
                                                     NStatePlan(3), DetectorModel(0.5)),
                     r"^programs\[2\] intensity must be a finite number in "
                     r"\[0, inf\], got inf$", id="analytic-nstate-program-inf"),
        pytest.param(lambda: analytic_nstate_success((1e154 + 0j, -1e154 + 0j, 0j), 0,
                                                     NStatePlan(3), DetectorModel(0.5)),
                     r"^\|programs\[1\] - programs\[0\]\|\^2 must be a finite number in "
                     r"\[0, inf\], got inf$", id="analytic-nstate-distance-overflow"),
        pytest.param(lambda: analytic_nstate_success(RING[:2], 0, NStatePlan(3),
                                                     DetectorModel(0.5)),
                     "expected 3 program states", id="analytic-programs-length"),
        pytest.param(lambda: analytic_nstate_success(RING, 3, NStatePlan(3), DetectorModel(0.5)),
                     "k must be an integer >= 0 and at most 2, got 3", id="analytic-k-equals-n"),
        pytest.param(lambda: analytic_nstate_success(RING, 1.5, NStatePlan(3), DetectorModel(0.5)),
                     "k must be an integer", id="analytic-k-fraction"),
        pytest.param(lambda: _config(None, programs=(complex(math.nan, 0), -1.0 + 0j)),
                     r"programs\[0\]", id="program-nan"),
        pytest.param(lambda: _config(None, programs=(1.0 + 0j, complex(0, math.inf))),
                     r"programs\[1\]", id="program-inf"),
        # Finite parts whose squared modulus overflows: the run would book
        # every trial as a double click.
        pytest.param(lambda: _config(None, programs=(1e200, -1e200)), r"programs\[0\]",
                     id="program-intensity-overflow"),
        pytest.param(lambda: _config(None, programs=(1e160, 0.5)), r"programs\[0\]",
                     id="program-intensity-overflow-one"),
        # Counts and seeds are integers: a fraction or NaN is named, not
        # left to fail later with a TypeError.
        pytest.param(lambda: StabilizerConfig(probe_trials=2.5), "probe_trials",
                     id="probe-trials-fraction"),
        pytest.param(lambda: _config(None, trials_per_block=2.5), "trials_per_block",
                     id="trials-fraction"),
        pytest.param(lambda: _config(None, trials_per_block=math.nan), "trials_per_block",
                     id="trials-nan"),
        pytest.param(lambda: _config(None, blocks=2.5), "blocks", id="blocks-fraction"),
        pytest.param(lambda: _config(None, blocks=math.nan), "blocks", id="blocks-nan"),
        pytest.param(lambda: _config(None, seed=2.5), "seed", id="seed-fraction"),
        pytest.param(lambda: _config(None, seed=math.nan), "seed", id="seed-nan"),
        pytest.param(lambda: _config(None, seed=-1), "seed", id="seed-negative"),
        pytest.param(lambda: NStatePlan(2.5), "n must be an integer", id="nstate-fraction"),
        pytest.param(lambda: SweepSpec(0.0, 1.0, 2.5), "points", id="points-fraction"),
        pytest.param(lambda: run_experiment(_config(None), workers=2.5), "workers",
                     id="workers-fraction"),
        pytest.param(lambda: run_experiment(_config(None), workers=math.nan), "workers",
                     id="workers-nan"),
        pytest.param(lambda: simulate_drift_paths(0.1, 2.5, 2, 1), "blocks",
                     id="drift-blocks-fraction"),
        pytest.param(lambda: simulate_drift_paths(0.1, -1, 2, 1), "blocks",
                     id="drift-blocks-negative"),
        pytest.param(lambda: simulate_drift_paths(0.1, 2, 2.5, 1), "paths",
                     id="drift-paths-fraction"),
        pytest.param(lambda: simulate_drift_paths(0.1, 2, -1, 1), "paths",
                     id="drift-paths-negative"),
        pytest.param(lambda: simulate_drift_paths(0.1, 2, 0, 1), "paths", id="drift-paths-zero"),
        pytest.param(lambda: simulate_drift_paths(0.1, 2, 2, 2.5), "seed",
                     id="drift-seed-fraction"),
        pytest.param(lambda: simulate_drift_paths(0.1, 2, 2, -1), "seed",
                     id="drift-seed-negative"),
        pytest.param(lambda: ring_programs(2.5, 1.0), "n must be an integer", id="ring-n-fraction"),
        pytest.param(lambda: ring_programs(0, 1.0), "n must be an integer", id="ring-n-zero"),
        pytest.param(lambda: run_trial(_config(None), -1), "trial_index",
                     id="trial-index-negative"),
        pytest.param(lambda: run_trial(_config(None), 2.5), "trial_index",
                     id="trial-index-fraction"),
        # numpy's binomial draw takes a C long, so an uncapped count ends in
        # an OverflowError inside the lock.
        pytest.param(lambda: StabilizerConfig(probe_trials=2**63), "probe_trials",
                     id="probe-trials-2-63"),
        pytest.param(lambda: StabilizerConfig(probe_trials=MAX_PROBE_TRIALS + 1), "probe_trials",
                     id="probe-trials-above-cap"),
        pytest.param(lambda: _probe(coupling=-0.5), "coupling", id="probe-coupling-negative"),
        pytest.param(lambda: _probe(coupling=2.0), "coupling", id="probe-coupling-above-one"),
        pytest.param(lambda: _probe(coupling=math.nan), "coupling", id="probe-coupling-nan"),
        pytest.param(lambda: _probe(visibility=1.5), "visibility", id="probe-visibility-above-one"),
        pytest.param(lambda: _probe(visibility=math.nan), "visibility", id="probe-visibility-nan"),
        pytest.param(lambda: _probe(program_intensity=math.inf), "program_intensity",
                     id="probe-intensity-inf"),
        pytest.param(lambda: _probe(program_intensity=math.nan), "program_intensity",
                     id="probe-intensity-nan"),
        pytest.param(lambda: _probe(program_intensity=-1.0), "program_intensity",
                     id="probe-intensity-negative"),
        # Real inputs go through optics.as_real: a finite Python or numpy
        # real in range, named with its range otherwise.  An array or a
        # string is rejected there, not accepted or left to a TypeError.
        pytest.param(lambda: BeamSplitter(1.5),
                     r"transmittance must be a finite number in \[0, 1\], got 1.5",
                     id="transmittance-above-one"),
        pytest.param(lambda: BeamSplitter(np.array([0.5])), "transmittance",
                     id="transmittance-array"),
        pytest.param(lambda: from_intensity_phase(-1.0, 0.0),
                     r"mean photon number must be a finite number in \[0, inf\]",
                     id="intensity-negative"),
        pytest.param(lambda: from_intensity_phase(1.0, math.inf),
                     "phase must be a finite number, got inf", id="phase-inf"),
        pytest.param(lambda: SplitterPlan(np.array([0.5])), "t0", id="t0-array"),
        pytest.param(lambda: SplitterPlan("0.5"), "t0 must be a finite number", id="t0-string"),
        pytest.param(lambda: DetectorModel(np.array([0.5])), "eta", id="eta-array"),
        pytest.param(lambda: DetectorModel("0.5"), "eta", id="eta-string"),
        pytest.param(lambda: DetectorModel(1.5),
                     r"eta must be a finite number in \[0, 1\], got 1.5", id="eta-above-one"),
        pytest.param(lambda: DetectorModel(0.5, -1.0), "dark_mean", id="dark-negative"),
        pytest.param(lambda: InterferenceModel(math.nan), "visibility must be a finite number",
                     id="visibility-nan"),
        pytest.param(lambda: DriftModel(np.array([0.1, 0.2])), "sigma", id="sigma-array"),
        pytest.param(lambda: DriftModel(10**400), "sigma", id="sigma-past-float-range"),
        pytest.param(lambda: DriftModel(-0.1), r"sigma must be a finite number in \[0, inf\]",
                     id="sigma-negative"),
        pytest.param(lambda: StabilizerConfig(dither=0.0),
                     r"dither must be a finite number in \(0, inf\], got 0.0", id="dither-zero"),
        pytest.param(lambda: StabilizerConfig(dither=math.inf), "dither", id="dither-inf"),
        pytest.param(lambda: StabilizerConfig(gain=np.float64(0.0)), r"gain .* \(0, 1\]",
                     id="gain-numpy-zero"),
        pytest.param(lambda: SweepSpec(None, 1.0, 3), "start must be a finite number, got None",
                     id="start-none"),
        pytest.param(lambda: SweepSpec(0.0, math.nan, 3), "stop must be a finite number, got nan",
                     id="stop-nan"),
        pytest.param(lambda: _config((0.5, math.nan)), r"priors\[1\] must be a finite number",
                     id="prior-nan-named"),
        pytest.param(lambda: _config((1.5, -0.5)), r"priors\[0\]", id="prior-above-one"),
        pytest.param(lambda: _config((0.5, 0.25)), "priors must sum to 1, got 0.75",
                     id="priors-sum"),
        pytest.param(lambda: binomial_stderr(1.2, 10),
                     r"^p must be a finite number in \[0, 1\], got 1.2$", id="fraction-above-one"),
        pytest.param(lambda: binomial_stderr(0.5, 0), "n must be an integer >= 1",
                     id="stderr-n-zero"),
        # Past 1e12 photons, rounding makes a null port click often enough
        # to book wrong answers (see montecarlo.MAX_INTENSITY).
        pytest.param(lambda: _config(None, programs=(from_intensity_phase(1e13, 0.0), -1.0 + 0j)),
                     r"programs\[0\] intensity must be a finite number in \[0, 1e\+12\]",
                     id="program-intensity-above-cap"),
        pytest.param(lambda: _config(None, programs=(
                         from_intensity_phase(MAX_INTENSITY * (1 + 1e-12), 0.0), -1.0 + 0j)),
                     r"programs\[0\] intensity must be a finite number in \[0, 1e\+12\]",
                     id="program-intensity-just-above-cap"),
        # Every entry of a phase vector goes through optics.as_reals: a string,
        # a complex or an int past the float range is named, not left to a
        # bare conversion error, a TypeError or an OverflowError.
        *[
            pytest.param(call, rf"{name}\[{j}\] must be a finite number, got {shown}",
                         id=f"{where}-{what}")
            for what, bad, shown in (("string", "a", "'a'"), ("complex", 1j, "1j"),
                                     ("int-past-float-range", 10**400, "1000"))
            for where, name, j, call in (
                ("click-matrix", "phase_errors", 1,
                 lambda bad=bad: click_matrix(_config(None), [0.0, bad])),
                ("run-trial", "phase_errors", 0,
                 lambda bad=bad: run_trial(_config(None), 0, [bad, 0.0])),
                ("evolve", "phases", 1,
                 lambda bad=bad: evolve([0.0, bad], DriftModel(0.1), np.random.default_rng(0))),
                ("stabilize", "phases", 0,
                 lambda bad=bad: stabilize([bad, 0.0], StabilizerConfig(), [_probe()] * 2,
                                           np.random.default_rng(0))),
            )
        ],
        # evolve takes a vector of phases: a column or a scalar is not one.
        pytest.param(lambda: evolve(np.array([[0.1], [0.2]]), DriftModel(0.1),
                                    np.random.default_rng(0)),
                     r"phases\[0\] must be a finite number, got \[0.1\]$", id="evolve-column"),
        pytest.param(lambda: evolve(0.5, DriftModel(0.1), np.random.default_rng(0)),
                     "phases must be a sequence, got 0.5$", id="evolve-scalar"),
        # The lock corrects one phase per probe: a third phase was left
        # uncorrected, and a missing one ended in an IndexError.
        pytest.param(lambda: stabilize([0.1, 0.2, 0.3], StabilizerConfig(), [_probe()] * 2,
                                       np.random.default_rng(0)),
                     "expected 2 phases, got 3$", id="stabilize-phase-more"),
        pytest.param(lambda: stabilize([0.1], StabilizerConfig(), [_probe()] * 2,
                                       np.random.default_rng(0)),
                     "expected 2 phases, got 1$", id="stabilize-phase-fewer"),
        # ScenarioParams names its own fields, not the model a bad value reaches.
        *[
            pytest.param(lambda field=field, bad=bad: ScenarioParams(**{field: bad}),
                         rf"{field} must be a finite number{where}, got {bad}$",
                         id=f"params-{field}-{bad}")
            for field, bad, where in (
                ("t0", math.nan, r" in \[0, 1\]"), ("eta1", -0.1, r" in \[0, 1\]"),
                ("eta2", 1.5, r" in \[0, 1\]"), ("vis1", math.nan, r" in \[0, 1\]"),
                ("vis2", 7.0, r" in \[0, 1\]"), ("dark", math.inf, r" in \[0, inf\]"),
                ("intensity1", -1.0, r" in \[0, inf\]"),
                ("intensity2", math.nan, r" in \[0, inf\]"),
                ("drift_sigma", -0.1, r" in \[0, inf\]"),
                ("phase1_deg", math.nan, ""), ("phase2_deg", -math.inf, ""),
            )
        ],
        pytest.param(lambda: ScenarioParams(trials=10.0),
                     f"trials must be an integer >= 1 and at most {MAX_TRIALS_PER_BLOCK}, "
                     "got 10.0$", id="params-trials-float"),
        pytest.param(lambda: ScenarioParams(trials=MAX_TRIALS_PER_BLOCK + 1), "trials must be",
                     id="params-trials-above-cap"),
        pytest.param(lambda: ScenarioParams(blocks=0), "blocks must be an integer >= 1",
                     id="params-blocks-zero"),
        pytest.param(lambda: ScenarioParams(blocks=MAX_BLOCKS + 1),
                     f"blocks must be an integer >= 1 and at most {MAX_BLOCKS}, got",
                     id="params-blocks-above-cap"),
        pytest.param(lambda: ScenarioParams(seed=-1), "seed must be an integer >= 0, got -1$",
                     id="params-seed-negative"),
        pytest.param(lambda: ScenarioParams(stabilize="no"),
                     "stabilize must be True or False, got 'no'$", id="params-stabilize-string"),
        pytest.param(lambda: ScenarioParams(stabilize=1), "stabilize must be True or False, got 1$",
                     id="params-stabilize-int"),
        pytest.param(lambda: nstate_report("3", ScenarioParams(trials=10, blocks=1)),
                     "n must be an integer >= 2 and at most 64, got 3$", id="nstate-n-string"),
        # A bool is neither a count nor a real, though Python counts it as both.
        pytest.param(lambda: ScenarioParams(trials=True),
                     f"trials must be an integer >= 1 and at most {MAX_TRIALS_PER_BLOCK}, "
                     "got True$", id="params-trials-bool"),
        pytest.param(lambda: DetectorModel(True),
                     r"eta must be a finite number in \[0, 1\], got True$", id="eta-bool"),
        pytest.param(lambda: run_experiment(_config(None), workers=True),
                     "workers must be an integer >= 1, got True$", id="workers-bool"),
        pytest.param(lambda: click_matrix(_config(None), [True, 0.0]),
                     r"phase_errors\[0\] must be a finite number, got True$",
                     id="click-matrix-bool-phase"),
        # A chart names a non-finite cell it would draw: a NaN marker wrote
        # cy="nan", an infinite x put every tick at "nan", and an infinite
        # analytic value was drawn at the top of the axis.
        pytest.param(lambda: svg_bytes(Table("t", ("x", "p_plus", "se_p_plus"),
                                             ((0.0, math.nan, 0.1),))),
                     r"p_plus\[0\] must be a finite number, got nan$", id="svg-marker-nan"),
        pytest.param(lambda: svg_bytes(Table("t", ("x", "p_plus"), ((0.0, 0.5), (math.inf, 0.5)))),
                     r"x\[1\] must be a finite number, got inf$", id="svg-x-inf"),
        pytest.param(lambda: svg_bytes(Table("t", ("x", "analytic_p"),
                                             ((0.0, 0.5), (1.0, math.inf)))),
                     r"analytic_p\[1\] must be a finite number, got inf$",
                     id="svg-analytic-inf"),
        # Finite ends whose span overflows put every coordinate at "nan".
        pytest.param(lambda: svg_bytes(Table("t", ("x", "p_a"), ((-1e308, 0.5), (1e308, 0.4)))),
                     r"^x spans -1e\+308 to 1e\+308, wider than the float range$",
                     id="svg-x-span-overflow"),
        # Philox's counter wraps, so a trial past the run replayed one inside it.
        pytest.param(lambda: run_trial(_config(None, trials_per_block=5, blocks=2), 10),
                     r"^trial_index must be an integer >= 0 and at most 9, got 10$",
                     id="trial-index-past-run"),
        pytest.param(lambda: run_trial(_config(None, trials_per_block=5, blocks=2), 3 + 2**256),
                     r"^trial_index must be an integer >= 0 and at most 9, got \d+$",
                     id="trial-index-counter-wrap"),
        # A model of the wrong type is named where it enters, not where the
        # run first reads one of its fields.
        pytest.param(lambda: ExperimentConfig(RING[:2], "plan", (DetectorModel(0.5),),
                                              (InterferenceModel(1.0),)),
                     r"^plan must be a Plan, got 'plan'$", id="config-plan-string"),
        pytest.param(lambda: ExperimentConfig(RING[:2], SplitterPlan(0.5), ("det",),
                                              (InterferenceModel(1.0),)),
                     r"^detectors\[0\] must be a DetectorModel, got 'det'$",
                     id="config-detector-string"),
        pytest.param(lambda: ExperimentConfig(RING[:2], SplitterPlan(0.5), (DetectorModel(0.5),),
                                              (InterferenceModel(1.0), 0.9)),
                     r"^interference\[1\] must be an InterferenceModel, got 0.9$",
                     id="config-interference-number"),
        # One model or one amplitude where a sequence is due, and a program
        # that is not a number, are named by their field.
        pytest.param(lambda: ExperimentConfig(RING[:2], SplitterPlan(0.5), DetectorModel(0.5),
                                              (InterferenceModel(1.0),)),
                     r"^detectors must be a sequence, got DetectorModel\(eta=0\.5, dark_mean=0\.0\)$",
                     id="config-detectors-one-model"),
        pytest.param(lambda: ExperimentConfig(RING[:2], SplitterPlan(0.5), (DetectorModel(0.5),),
                                              InterferenceModel(1.0)),
                     r"^interference must be a sequence, got InterferenceModel\(visibility=1\.0\)$",
                     id="config-interference-one-model"),
        pytest.param(lambda: ExperimentConfig(1.0 + 0j, SplitterPlan(0.5), (DetectorModel(0.5),),
                                              (InterferenceModel(1.0),)),
                     r"^programs must be a sequence, got \(1\+0j\)$", id="config-programs-one-amplitude"),
        pytest.param(lambda: ExperimentConfig((1.0 + 0j, "x"), SplitterPlan(0.5),
                                              (DetectorModel(0.5),), (InterferenceModel(1.0),)),
                     r"^programs\[1\] must be a Complex, got 'x'$", id="config-program-string"),
        pytest.param(lambda: _config(None, drift=0.1),
                     r"^drift must be a DriftModel or None, got 0.1$", id="config-drift-number"),
        pytest.param(lambda: _config(None, stabilizer=True),
                     r"^stabilizer must be a StabilizerConfig or None, got True$",
                     id="config-stabilizer-bool"),
        pytest.param(lambda: analytic_nstate_success(RING[:2], 0, SplitterPlan(0.5),
                                                     DetectorModel(0.5)),
                     r"^plan must be an NStatePlan, got SplitterPlan\(t0=0.5\)$",
                     id="analytic-nstate-two-state-plan"),
        pytest.param(lambda: analytic_nstate_success(RING, 0, NStatePlan(3), 0.5),
                     r"^det must be a DetectorModel, got 0.5$", id="analytic-nstate-det-number"),
        pytest.param(lambda: _probe(detector="det"),
                     r"^detector must be a DetectorModel, got 'det'$", id="probe-detector-string"),
    ],
)
def test_inconsistent_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_program_at_the_intensity_cap_is_accepted_at_every_phase():
    # cmath.rect can return re^2 + im^2 a few ulps above the intensity it
    # was built from; an amplitude built at exactly the cap stays inside it.
    for k in range(360):
        alpha = from_intensity_phase(MAX_INTENSITY, math.radians(k))
        assert _config(None, programs=(alpha, -1.0 + 0j)).programs[0] == alpha


def test_programs_are_kept_as_a_tuple():
    # An edit of the caller's list after construction reaches neither the
    # config nor its intensity check.
    progs, small = [1.0 + 0j, -1.0 + 0j], dict(trials_per_block=100, blocks=2)
    cfg = _config(None, programs=progs, **small)
    progs[0] = 1e300
    assert cfg.programs == (1.0 + 0j, -1.0 + 0j)
    assert hash(cfg) == hash(_config(None, **small))
    assert run_experiment(cfg).counts == run_experiment(_config(None, **small)).counts
    # A numpy array's entries are kept as they are, not converted.
    arr = np.array([1.0 + 0j, -1.0 + 0j])
    assert all(type(a) is np.complex128 for a in _config(None, programs=arr).programs)


def test_numpy_integers_are_accepted():
    two, three = np.int64(2), np.int32(3)
    assert StabilizerConfig(probe_trials=three).probe_trials == 3
    cfg = _config(None, trials_per_block=three, blocks=two, seed=np.uint64(2**63))
    assert cfg.total_trials == 6
    assert len(NStatePlan(three).couplings) == 3
    assert len(SweepSpec(0.0, 1.0, two).grid()) == 2


def test_numpy_integer_counts_run():
    # Philox.advance takes only Python ints, so a numpy trial count must not
    # reach the trial offsets.
    two, three = np.int64(2), np.int32(3)
    cfg = _config(None, trials_per_block=three, blocks=two, seed=np.uint64(2**63))
    assert run_experiment(cfg, workers=two).counts.c_tot == 6
    assert simulate_drift_paths(0.1, two, three, two).shape == (3, 2)
    assert len(ring_programs(three, 1.0)) == 3


def test_numpy_trial_index_replays_the_same_trial():
    cfg = _config(None)
    assert run_trial(cfg, np.int64(3)) == run_trial(cfg, 3)


@pytest.mark.parametrize("scalar", [np.float32, np.float64])
@pytest.mark.parametrize(
    "build, names",
    [
        pytest.param(lambda s: BeamSplitter(s(0.25)), ("transmittance",), id="splitter"),
        pytest.param(lambda s: SplitterPlan(s(0.25)), ("t0",), id="plan"),
        pytest.param(lambda s: DetectorModel(s(0.5), s(1e-6)), ("eta", "dark_mean"),
                     id="detector"),
        pytest.param(lambda s: InterferenceModel(s(0.9)), ("visibility",), id="interference"),
        pytest.param(lambda s: DriftModel(s(0.1)), ("sigma",), id="drift"),
        pytest.param(lambda s: StabilizerConfig(dither=s(0.2), gain=s(0.5)), ("dither", "gain"),
                     id="stabilizer"),
        pytest.param(lambda s: _probe(coupling=s(0.25), program_intensity=s(1.5),
                                      visibility=s(0.9)),
                     ("coupling", "program_intensity", "visibility"), id="probe"),
        pytest.param(lambda s: SweepSpec(s(0.5), s(2.0), 3), ("start", "stop"), id="sweep"),
        pytest.param(lambda s: _config((s(0.25), s(0.75))), ("priors",), id="priors"),
    ],
)
def test_real_fields_are_stored_as_python_floats(build, names, scalar):
    # numpy scalars would run the per-port loops in slow numpy arithmetic.
    obj = build(scalar)
    for name in names:
        stored = getattr(obj, name)
        for value in stored if isinstance(stored, tuple) else (stored,):
            assert type(value) is float, (name, type(value))
