"""Property tests over random small experiments, networks and CLI flags.

Hypothesis draws the network size, the priors, drift and the lock, and the
block size; ``_CHUNK`` is patched small so that blocks split into several
chunks and two workers really share them.  It also checks that a run is a
prefix of any longer run, and draws random networks for the null-port law
and edge values for every numeric CLI flag.  The examples are derandomized,
so every run checks the same cases.
"""

import contextlib
import dataclasses
import io
from unittest import mock

import numpy as np
import pytest

from udiscrim import cli, montecarlo
from udiscrim.detection import DetectorModel, InterferenceModel
from udiscrim.drift import DriftModel, StabilizerConfig
from udiscrim.montecarlo import ExperimentConfig, run_experiment
from udiscrim.network import NStatePlan, SplitterPlan, detector_amplitudes
from udiscrim.sweeps import ring_programs

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from((2, 3)),
    one_hot=st.booleans(),
    drift=st.booleans(),
    lock=st.booleans(),
    workers=st.sampled_from((1, 2)),
    k=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, one_hot=False, drift=False, lock=True, workers=1, k=1, seed=0)
def test_a_run_is_a_prefix_of_any_longer_run(n, one_hot, drift, lock, workers, k, seed):
    # Blocks depend on the seed and their index alone, never on how many
    # blocks follow: a stream keyed by the run length would break this.
    cfg = ExperimentConfig(
        programs=ring_programs(n, 1.0),
        plan=NStatePlan(n),
        detectors=(DetectorModel(0.53, 0.01),),
        interference=(InterferenceModel(0.98),),
        priors=tuple(float(j == n - 1) for j in range(n)) if one_hot else None,
        trials_per_block=250,
        blocks=3,
        seed=seed,
        drift=DriftModel(0.2) if drift else None,
        stabilizer=StabilizerConfig(probe_trials=200) if lock else None,
    )
    with mock.patch.object(montecarlo, "_CHUNK", 100):
        whole = run_experiment(cfg, workers)
        head = run_experiment(dataclasses.replace(cfg, blocks=k), workers)
    assert head.block_counts == whole.block_counts[:k]
    assert np.array_equal(head.phase_history, whole.phase_history[:k])
    assert head.probe_pulses * cfg.blocks == whole.probe_pulses * k


amplitudes = st.complex_numbers(max_magnitude=10.0, allow_subnormal=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(t0=st.floats(1e-3, 1 - 1e-3), programs=st.tuples(amplitudes, amplitudes))
def test_two_state_null_port_is_dark(t0, programs):
    # Port k is dark when the unknown equals program k, to rounding of the
    # program scale.
    plan = SplitterPlan(t0)
    bound = 1e-12 * max(abs(a) for a in programs)
    for k, alpha in enumerate(programs):
        assert abs(detector_amplitudes(alpha, programs, plan)[k]) <= bound


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(programs=st.integers(2, 8).flatmap(lambda n: st.lists(amplitudes, min_size=n, max_size=n)))
def test_n_state_null_port_is_dark(programs):
    plan = NStatePlan(len(programs))
    bound = 1e-12 * max(abs(a) for a in programs)
    for k, alpha in enumerate(programs):
        assert abs(detector_amplitudes(alpha, programs, plan)[k]) <= bound


# A value each numeric flag takes in an ordinary run.
_TYPICAL = {
    "t0": "0.4", "eta1": "0.53", "eta2": "0.6", "dark": "1e-6", "vis1": "0.98", "vis2": "0.9",
    "trials": "50", "blocks": "2", "seed": "7", "drift_sigma": "0.1", "workers": "2",
    "start": "0.5", "stop": "2", "points": "2", "n": "3", "alpha1": "1", "alpha2": "0.7",
}
_EDGES = ("nan", "inf", "-inf", "-1", "0", None, "1e308")  # None: the typical value


@st.composite
def cli_runs(draw):
    """A tiny run of one command with one numeric flag set to an edge value."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    command = cli._COMMANDS[name]
    grid = ("n",) if command.grid is None else ("start", "stop", "points")
    flags = [f for f in command.flags if f != "stabilize"] + ["workers", *grid]
    args = {"trials": "50", "blocks": "2"}
    if command.grid is None:
        args["n"] = draw(st.sampled_from(("1", "2", "3", "8", "65")))
    else:
        args["points"] = "2"
    flag = draw(st.sampled_from(flags))
    value = draw(st.sampled_from(_EDGES)) or _TYPICAL[flag]
    # With a huge stop, a huge negative start makes a span past the float range.
    wide = flag == "stop" and value == "1e308" and draw(st.booleans())
    if flag in ("alpha1", "alpha2"):
        value = draw(st.sampled_from((f"{value}:0", f"1:{value}")))
    args[flag] = value
    argv = [name]
    for key, text in args.items():
        argv += ["--" + key.replace("_", "-"), text]
    if wide:
        argv.append("--start=-1e308")  # joined, or argparse takes it for a flag
    if "stabilize" in command.flags and draw(st.booleans()):
        argv.append("--stabilize")
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-flags")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=cli_runs())
@example(argv=["sweep-ratio", "--points", "2", "--stop", "1e308", "--start=-1e308"])
def test_numeric_flags_never_end_in_a_traceback(out_dir, argv):
    # A numpy overflow or invalid-value warning is raised as an error here,
    # so it escapes main like any other unhandled exception.
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", str(out_dir / "run.csv")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
