"""Property tests over random small experiments.

Hypothesis draws the network size, the priors, drift and the lock, and the
block size; ``_CHUNK`` is patched small so that blocks split into several
chunks and two workers really share them.  The examples are derandomized,
so every run checks the same cases.
"""

from unittest import mock

import pytest

from udiscrim import montecarlo
from udiscrim.detection import DetectorModel, InterferenceModel
from udiscrim.drift import DriftModel, StabilizerConfig
from udiscrim.montecarlo import ExperimentConfig, run_experiment
from udiscrim.network import NStatePlan, SplitterPlan
from udiscrim.sweeps import ring_programs

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def priors(draw, n):
    kind = draw(st.sampled_from(["uniform", "skewed", "one-hot"]))
    if kind == "uniform":
        return None
    if kind == "one-hot":
        k = draw(st.integers(0, n - 1))
        return tuple(float(j == k) for j in range(n))
    ratio = draw(st.floats(0.1, 0.9))
    weights = [ratio**j for j in range(n)]
    return tuple(w / sum(weights) for w in weights)


@st.composite
def experiments(draw):
    n = draw(st.integers(2, 6))
    if n == 2 and draw(st.booleans()):
        plan = SplitterPlan(draw(st.floats(0.05, 0.95)))
    else:
        plan = NStatePlan(n)
    drift = DriftModel(draw(st.floats(0.01, 0.5))) if draw(st.booleans()) else None
    lock = StabilizerConfig(probe_trials=200) if draw(st.booleans()) else None
    return ExperimentConfig(
        programs=ring_programs(n, draw(st.floats(0.1, 3.0)), draw(st.floats(0.0, 360.0))),
        plan=plan,
        detectors=(DetectorModel(draw(st.floats(0.1, 1.0)), draw(st.floats(0.0, 0.05))),),
        interference=(InterferenceModel(draw(st.floats(0.5, 1.0))),),
        priors=draw(priors(n)),
        trials_per_block=draw(st.integers(1, 3000)),
        blocks=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
        drift=drift,
        stabilizer=lock,
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=experiments(), chunk=st.integers(100, 1500))
def test_block_counts_do_not_depend_on_workers(cfg, chunk):
    with mock.patch.object(montecarlo, "_CHUNK", chunk):
        one = run_experiment(cfg, workers=1)
        two = run_experiment(cfg, workers=2)
    assert two.block_counts == one.block_counts
    for c in one.block_counts:
        assert min(c.c_plus + c.c_minus + (c.double_clicks, c.no_clicks)) >= 0
        assert c.conclusive + c.inconclusive == c.c_tot == cfg.trials_per_block
