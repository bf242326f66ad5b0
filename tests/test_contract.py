"""One input contract for every public name.

Each name in ``udiscrim.__all__`` has one row here: either a valid base
call that names every parameter, with the real, integer and real-vector
ones marked, or a one-line reason why it takes no number.  Every marked
parameter then gets NaN, +inf, -inf, a numpy NaN and its out-of-range
values, and an integer also 2.5.  For a vector the first and the last
entry take them, and the error names that entry, ``name[j]``.  Each case
expects a ``ValueError`` that names the parameter and shows the value as
a plain Python number.  A public name with no row fails, and so does a
parameter that its row does not name, or does not mark though it is
annotated as a number, so a new one cannot skip the contract.  Complex
amplitudes and bools are not in the table.
"""

import inspect
import math
import re
from typing import NamedTuple

import numpy as np
import pytest

import udiscrim
from udiscrim import (DetectorModel, DriftModel, ExperimentConfig, InterferenceModel, NStatePlan,
                      ProbeModel, ScenarioParams, SplitterPlan, StabilizerConfig, SweepSpec)
from udiscrim.drift import MAX_PROBE_TRIALS
from udiscrim.montecarlo import MAX_BLOCKS, MAX_TRIALS_PER_BLOCK
from udiscrim.sweeps import MAX_POINTS, MAX_STATES

NON_FINITE = (math.nan, math.inf, -math.inf, np.float64(math.nan))


class Num(NamedTuple):
    """A numeric parameter: a valid value, a list for a vector of reals; its
    out-of-range values; and the name its errors use, if not its own."""

    base: object
    bad: tuple
    label: str | None = None


def real(base, *bad, label=None):
    return Num(base, bad, label)


def integer(base, *bad):
    return Num(base, (2.5, *bad))


UNIT = (-0.1, 1.5)  # out of [0, 1]
DET, VIS = DetectorModel(0.5), InterferenceModel(0.9)
RING = (1.0 + 0j, 1j, -1.0 + 0j)
CFG = ExperimentConfig((1.0 + 0j, -1.0 + 0j), SplitterPlan(0.5), (DET,), (VIS,),
                       trials_per_block=10, blocks=1)
PARAMS = ScenarioParams(trials=10, blocks=1)
PROBE = ProbeModel(0.3, 1.0, 0.9, DET)
RNG = np.random.default_rng(0)
TRIALS, BLOCKS = (0, MAX_TRIALS_PER_BLOCK + 1), (0, MAX_BLOCKS + 1)
PHOTONS = "mean photon number"
SWEEP = {"spec": SweepSpec(0.0, 1.0, 2), "params": PARAMS, "workers": integer(1, 0)}

# Every parameter of a row's call, by name: a Num, or a plain valid value.
ROWS = {
    "DetectorModel": {"eta": real(0.5, *UNIT), "dark_mean": real(0.0, -1.0)},
    "DriftModel": {"sigma": real(0.1, -0.1)},
    "ExperimentConfig": {
        "programs": (1.0 + 0j, -1.0 + 0j), "plan": SplitterPlan(0.5), "detectors": (DET,),
        "interference": (VIS,), "priors": real([0.5, 0.5], -0.5, 1.5),
        "trials_per_block": integer(10, *TRIALS), "blocks": integer(2, *BLOCKS),
        "seed": integer(0, -1), "drift": None, "stabilizer": None,
    },
    "InterferenceModel": {"visibility": real(0.9, *UNIT)},
    "NStatePlan": {"n": integer(3, 1)},
    "ProbeModel": {"coupling": real(0.3, *UNIT), "program_intensity": real(1.0, -1.0),
                   "visibility": real(0.9, *UNIT), "detector": DET},
    "ScenarioParams": {
        **{name: real(0.5, *UNIT) for name in ("t0", "eta1", "eta2", "vis1", "vis2")},
        **{name: real(1.0, -1.0) for name in ("dark", "intensity1", "intensity2", "drift_sigma")},
        "phase1_deg": real(0.0), "phase2_deg": real(180.0), "trials": integer(10, *TRIALS),
        "blocks": integer(1, *BLOCKS), "seed": integer(1, -1), "stabilize": False,
    },
    "SplitterPlan": {"t0": real(0.5, *UNIT)},
    "StabilizerConfig": {"probe_trials": integer(2000, 0, MAX_PROBE_TRIALS + 1),
                         "dither": real(0.2, 0.0, -0.1), "gain": real(0.7, 0.0, 1.5)},
    "SweepSpec": {"start": real(0.0), "stop": real(1.0), "points": integer(3, 1, MAX_POINTS + 1)},
    "analytic_nstate_success": {"programs": RING, "k": integer(1, -1, 3),
                                "plan": NStatePlan(3), "det": DET},
    "analytic_p1": {"alpha_1": 1.0 + 0j, "alpha_2": -1.0 + 0j, "t0": real(0.5, *UNIT),
                    "eta2": real(0.5, *UNIT)},
    "analytic_p2": {"alpha_1": 1.0 + 0j, "alpha_2": -1.0 + 0j, "t0": real(0.5, *UNIT),
                    "eta1": real(0.5, *UNIT)},
    "binomial_stderr": {"p": real(0.5, *UNIT), "n": integer(10, 0)},
    "click_matrix": {"cfg": CFG, "phase_errors": real([0.1, 0.2])},
    "click_probability": {"n": real(1.0, -1.0, label=PHOTONS), "det": DET},
    # The n-state plan, so that its own phase check is reached.
    "detector_amplitudes": {"alpha_unknown": 1j, "programs": RING, "plan": NStatePlan(3),
                            "phase_errors": real([0.1, 0.2, 0.3])},
    "evolve": {"phases": real([0.1, 0.2]), "drift": DriftModel(0.1), "rng": RNG},
    "fringe_visibility_equivalent": {"phi": real(0.1)},
    "from_intensity_phase": {"n": real(1.0, -1.0, label=PHOTONS),
                             "phi": real(0.0, label="phase")},
    "nstate_report": {"n": integer(2, 1, MAX_STATES + 1), "params": PARAMS,
                      "workers": integer(1, 0), "programs": None},
    "nstate_success_from_distances": {"squared_distances": real([1.0, 2.0], -1.0),
                                      "n": integer(3, 1), "eta": real(0.5, *UNIT)},
    "outcome_from_clicks": {"clicks": (True, False), "true_index": integer(0, -1, 2)},
    "port_mean_photons": {"coherent_sum": 1j, "incoherent_sum_of_intensities":
                          real(1.0, -1.0, label="sum of arm intensities"), "vis": VIS},
    "ring_programs": {"n": integer(3, 0), "intensity": real(1.0, -1.0), "phase_deg": real(0.0)},
    "run_experiment": {"cfg": CFG, "workers": integer(1, 0)},
    "run_trial": {"cfg": CFG, "trial_index": integer(3, -1), "phase_errors": real([0.1, 0.2])},
    "simulate_drift_paths": {"sigma": real(0.1, -0.1), "blocks": integer(2, 0),
                             "paths": integer(2, 0), "seed": integer(0, -1),
                             "stabilizer": None, "probe": None},
    "stabilize": {"phases": real([0.1, 0.2]), "cfg": StabilizerConfig(),
                  "probes": (PROBE, PROBE), "rng": RNG},
    "sweep_intensity": SWEEP,
    "sweep_phase": SWEEP,
    "sweep_ratio": SWEEP,
}

WRITER = "a writer: its numbers are a Table's cells, which are data"
EXEMPT = {
    "Counts": "a result type: the engine's tallies, which Counts.check verifies",
    "ExperimentResult": "a result type that run_experiment builds",
    "Fractions": "a result type that fractions_from_blocks builds",
    "InvariantViolation": "an exception",
    "NSTATE_COLUMNS": "a constant",
    "OutcomeKind": "an enum",
    "RESULT_COLUMNS": "a constant",
    "Table": "its cells are data; svg_bytes names a non-finite cell it draws",
    "classify": "takes clicks, which are bools",
    "csv_bytes": WRITER,
    "emit": WRITER,
    "fractions_from_blocks": "takes Counts, which the engine builds",
    "intensity": "takes a complex amplitude",
    "svg_bytes": WRITER,
    "write_csv": WRITER,
    "write_svg": WRITER,
}


def _call(name, **change):
    args = {p: v.base if isinstance(v, Num) else v for p, v in ROWS[name].items()}
    return getattr(udiscrim, name)(**{**args, **change})


def _cases():
    for name, row in ROWS.items():
        for param, num in row.items():
            if not isinstance(num, Num):
                continue
            label = num.label or param
            for bad in (*NON_FINITE, *num.bad):
                shown = f"numpy-{bad}" if isinstance(bad, np.generic) else bad
                if not isinstance(num.base, list):
                    yield pytest.param(name, param, bad, label, bad, id=f"{name}-{param}-{shown}")
                    continue
                for j in (0, len(num.base) - 1):
                    vector = [bad if i == j else x for i, x in enumerate(num.base)]
                    yield pytest.param(name, param, vector, f"{label}[{j}]", bad,
                                       id=f"{name}-{param}[{j}]-{shown}")


def test_every_public_name_has_one_row():
    assert not ROWS.keys() & EXEMPT.keys()
    assert sorted([*ROWS, *EXEMPT]) == sorted(udiscrim.__all__)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_row_names_every_parameter_and_runs(name):
    params = inspect.signature(getattr(udiscrim, name)).parameters
    assert ROWS[name].keys() == params.keys()
    # A parameter annotated as a number, or as a vector of them, is marked.
    numeric = {p for p, v in params.items() if re.search(r"\b(int|float)\b", str(v.annotation))}
    assert numeric <= {p for p, v in ROWS[name].items() if isinstance(v, Num)}
    _call(name)


@pytest.mark.parametrize("name, param, value, label, bad", _cases())
def test_bad_number_is_named(name, param, value, label, bad):
    shown = re.escape(repr(bad.item() if isinstance(bad, np.generic) else bad))
    with pytest.raises(ValueError, match=rf"^{re.escape(label)} must be .*, got {shown}$"):
        _call(name, **{param: value})
