"""Golden bytes: the SHA-256 of small CLI runs and library runs, pinned.

Each CLI case covers one way the sweeps build their experiments (truth-
conditioned pairs, the ratio sweep's same-truth pair, the n-state report),
with drift and the phase lock where they change the numbers.  The digests
must not depend on the worker count, so every case runs at 1 and 2 workers
against the same expected bytes.  A refactor that changes any digest has
changed the simulator's output.

The CLI only runs truth-conditioned (one-hot) priors, so the library cases
pin the per-block counts of runs whose truth is drawn from the priors.
"""

import hashlib

import pytest

from udiscrim import cli
from udiscrim.detection import DetectorModel, InterferenceModel
from udiscrim.drift import DriftModel
from udiscrim.montecarlo import ExperimentConfig, run_experiment
from udiscrim.network import NStatePlan
from udiscrim.sweeps import ring_programs

SMALL = ["--trials", "2000", "--blocks", "3", "--seed", "11"]

# case -> (CLI arguments, {output file name: SHA-256 of its bytes})
CASES = {
    "sweep-phase-default": (
        ["sweep-phase", "--points", "4", *SMALL],
        {
            "out_I0.25.csv": "d07d8649546fbf0688f9390e8299b2ee1fd1fa07f545faa651c6b3a242e66918",
            "out_I0.5.csv": "309280ce2be7240c8679789cd0471b9015420e1ac5d9c0e7d7e1cefb6672014f",
            "out_I1.csv": "d6736d4233fe2197f1740e4f943b4b4df0396968d1dda3b98a83045b0938e1b1",
        },
    ),
    "sweep-phase-alpha": (
        ["sweep-phase", "--points", "4", "--alpha1", "1.2:10", "--alpha2", "0.7:100", *SMALL],
        {"out.csv": "599300b4cac46ebea2e291b2e4c55725a30aa472f4dfb6ed55c46630a143e957"},
    ),
    "sweep-intensity-locked": (
        ["sweep-intensity", "--points", "4", "--drift-sigma", "0.1", "--stabilize", *SMALL],
        {"out.csv": "e5ca661091f9fd0d699ef0262dfc4c9fecef0d254391ce4c82776515aeeb6f74"},
    ),
    "sweep-ratio-t0": (
        ["sweep-ratio", "--points", "4", "--t0", "0.3", "--drift-sigma", "0.05", "--stabilize",
         *SMALL],
        {"out.csv": "973996409b67304733c150fb5344629da3d05cb8d3a3b63ba29c649b6d1cebe8"},
    ),
    # 70000 trials per block split into two chunks, so the workers shard.
    "nstate-locked": (
        ["nstate", "--n", "4", "--drift-sigma", "0.1", "--stabilize",
         "--trials", "70000", "--blocks", "2", "--seed", "5"],
        {"out.csv": "a3d97501075ac6f568bff10d94179a3d17e9cbfb92429b17a4ea2ce93828bff4"},
    ),
    "nstate-svg": (
        ["nstate", "--n", "3", "--format", "svg", *SMALL],
        {"out.svg": "cb83050f48b689bec7b2ecff026a3c25408f70272c69edf7d686d52dc8c4fafd"},
    ),
}


def _digests(tmp_path, args, workers):
    suffix = ".svg" if "svg" in args else ".csv"
    out = tmp_path / f"out{suffix}"
    rc = cli.main([*args, "--workers", str(workers), "--out", str(out)])
    assert rc == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes_are_pinned(tmp_path, case, workers):
    args, expected = CASES[case]
    assert _digests(tmp_path, args, workers) == expected


# case -> (ExperimentConfig keyword arguments, SHA-256 of the block counts)
LIBRARY_CASES = {
    # 70000 trials per block split into two chunks, so the workers shard.
    "uniform-n8-two-chunks": (
        dict(
            programs=ring_programs(8, 9.0, 10.0),
            plan=NStatePlan(8),
            detectors=(DetectorModel(0.53, 1e-3),),
            interference=(InterferenceModel(0.95),),
            trials_per_block=70_000,
            blocks=2,
            seed=21,
        ),
        "1194ffb19d70ee4f0af9050eeda4fece5c99d2a22a2e21340b3fe2fed5bd4b2b",
    ),
    "skewed-n3-drift": (
        dict(
            programs=ring_programs(3, 2.0),
            plan=NStatePlan(3),
            detectors=(DetectorModel(0.53, 1e-3),),
            interference=(InterferenceModel(0.9),),
            priors=(0.6, 0.3, 0.1),
            trials_per_block=3000,
            blocks=3,
            seed=4,
            drift=DriftModel(0.1),
        ),
        "643701d60fc6749fa10ee15ed3eae1e6f85d46a3d697da8471eb54330c059895",
    ),
}


def _block_digest(res) -> str:
    rows = tuple(
        (c.c_plus, c.c_minus, c.double_clicks, c.no_clicks, c.c_tot) for c in res.block_counts
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(LIBRARY_CASES))
def test_library_block_counts_are_pinned(case, workers):
    kwargs, expected = LIBRARY_CASES[case]
    res = run_experiment(ExperimentConfig(**kwargs), workers)
    assert _block_digest(res) == expected
