"""Public constructors reject non-finite input instead of running with it.

A NaN dark count would make every click probability NaN, so the
detectors would silently never fire; NaN drift or dither would poison the
phase history the same way.
"""

import math

import pytest

from udiscrim.detection import DetectorModel, InterferenceModel
from udiscrim.drift import DriftModel, StabilizerConfig
from udiscrim.montecarlo import ExperimentConfig
from udiscrim.network import SplitterPlan


def _config(priors):
    return ExperimentConfig(
        programs=(1.0 + 0j, -1.0 + 0j),
        plan=SplitterPlan(0.5),
        detectors=(DetectorModel(0.53),),
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
