"""Public constructors reject non-finite input instead of running with it.

A NaN dark count would make every click probability NaN, so the
detectors would silently never fire; NaN drift or dither would poison the
phase history the same way.
"""

import math

import pytest

from udiscrim.detection import (
    DetectorModel,
    InterferenceModel,
    analytic_nstate_success,
    nstate_success_from_distances,
)
from udiscrim.drift import DriftModel, StabilizerConfig
from udiscrim.montecarlo import ExperimentConfig
from udiscrim.network import NStatePlan, SplitterPlan, nstate_port_contributions

RING = (1.0 + 0j, 1j, -1.0 + 0j)


def _config(priors, programs=(1.0 + 0j, -1.0 + 0j), detectors=1):
    return ExperimentConfig(
        programs=programs,
        plan=SplitterPlan(0.5),
        detectors=(DetectorModel(0.53),) * detectors,
        interference=(InterferenceModel(1.0),),
        priors=priors,
    )


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
    ],
    ids=[
        "dark-nan", "dark-inf", "sigma-nan", "sigma-inf", "dither-nan",
        "prior-nan-first", "prior-nan-last",
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
        pytest.param(lambda: nstate_success_from_distances((1.0, 1.0, 1.0), 3, 0.5),
                     "expected 2 squared distances", id="distances-length"),
        pytest.param(lambda: analytic_nstate_success(RING[:2], 0, NStatePlan(3), DetectorModel(0.5)),
                     "expected 3 program states", id="analytic-programs-length"),
        pytest.param(lambda: analytic_nstate_success(RING, 3, NStatePlan(3), DetectorModel(0.5)),
                     "out of range", id="analytic-k-equals-n"),
    ],
)
def test_inconsistent_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
