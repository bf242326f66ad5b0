"""Golden bytes: the SHA-256 of small CLI runs and library runs, pinned.

Each CLI case covers one way the sweeps build their experiments (truth-
conditioned pairs, the ratio sweep's same-truth pair, the n-state report),
with drift and the phase lock where they change the numbers.  The digests
must not depend on the worker count, so every case runs at 1 and 2 workers
against the same expected bytes.  A refactor that changes any digest has
changed the simulator's output.

The CLI only runs truth-conditioned (one-hot) priors, so the library cases
pin the per-block counts of runs whose truth is drawn from the priors.  The
fraction cases pin the pooled fractions and their standard errors, from one
block (the binomial error) and from many.  The click-matrix cases pin the
click law itself, bit for bit, over seeded random networks.
"""

import hashlib
import math

import numpy as np
import pytest

from udiscrim import cli
from udiscrim.detection import DetectorModel, InterferenceModel
from udiscrim.drift import DriftModel
from udiscrim.montecarlo import (
    ExperimentConfig,
    click_matrix,
    fractions_from_blocks,
    run_experiment,
)
from udiscrim.network import NStatePlan, SplitterPlan
from udiscrim.optics import BeamSplitter
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
    # SVG titles print the table name, so the default sweep-phase run pins
    # the _I<intensity> tag of each of its three tables.
    "sweep-phase-svg": (
        ["sweep-phase", "--points", "4", "--format", "svg", *SMALL],
        {
            "out_I0.25.svg": "ba63ec4ed781a258f30eec22b6fabdd273e8be4b20373dd33ae43262a787dd96",
            "out_I0.5.svg": "d478065ece838b14e8520252a271edfb91846c9d21c166bd1d33a085abb86125",
            "out_I1.svg": "a36736a331acb8af5b0e02737687f7f455965ffbcbe158891d2548fb7dbd6a28",
        },
    ),
    "sweep-intensity-svg": (
        ["sweep-intensity", "--points", "4", "--format", "svg", *SMALL],
        {"out.svg": "9687134f74b7c3143355cac90a155ee1360cdfbc4f44134562c8eae8f2101b88"},
    ),
    "sweep-ratio-svg": (
        ["sweep-ratio", "--points", "4", "--format", "svg", *SMALL],
        {"out.svg": "d5887b7075139d6c879f2cbabd4a8fc64b4934849facb2c73201a1ec77b46023"},
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


# case -> (ExperimentConfig keyword arguments, SHA-256 of the fractions)
FRACTION_CASES = {
    "uniform-n3-one-block": (
        dict(priors=None, blocks=1),
        "a1d8d70a9ac84a9719142ab8f46bff79ffea8250e7ee4a4871707f7574eb5e5c",
    ),
    # Twelve blocks, more than the eight lanes of numpy's pairwise sum.
    "uniform-n3-twelve-blocks": (
        dict(priors=None, blocks=12),
        "40ad99cb35c19993ea76348e07853cf48c3e43690783fcf855ad165f66c35bb3",
    ),
    "one-hot-n3-one-block": (
        dict(priors=(0.0, 1.0, 0.0), blocks=1),
        "f09820b3eecb00b309d09852912e2a893283eaf7b685ff78543bd53ccd42845c",
    ),
    "one-hot-n3-twelve-blocks": (
        dict(priors=(0.0, 1.0, 0.0), blocks=12),
        "26e72974f381ed29bc66afc51f72c37113358fcce56ddda7ab4c886ab722b49e",
    ),
}


def _fractions_digest(f) -> str:
    h = hashlib.sha256()
    for field in (f.p_plus, f.p_minus, f.p_inconclusive, f.se_p_plus, f.se_p_minus,
                  f.se_p_inconclusive):
        h.update(np.asarray(field, dtype=float).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(FRACTION_CASES))
def test_fractions_from_blocks_are_pinned(case):
    kwargs, expected = FRACTION_CASES[case]
    cfg = ExperimentConfig(
        programs=ring_programs(3, 1.5),
        plan=NStatePlan(3),
        detectors=(DetectorModel(0.53, 1e-2),),
        interference=(InterferenceModel(0.9),),
        trials_per_block=1500,
        seed=8,
        drift=DriftModel(0.1),
        **kwargs,
    )
    res = run_experiment(cfg)
    assert _fractions_digest(fractions_from_blocks(res.block_counts)) == expected
    assert _fractions_digest(res.fractions) == expected


def _random_config(rng, n, plan):
    return ExperimentConfig(
        programs=tuple(complex(*rng.normal(size=2)) * rng.uniform(0.0, 2.0) for _ in range(n)),
        plan=plan,
        detectors=tuple(
            DetectorModel(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1e-2)))
            for _ in range(n)
        ),
        interference=tuple(InterferenceModel(float(rng.uniform(0.0, 1.0))) for _ in range(n)),
    )


# case -> (plan, seed, {phases: SHA-256 of the click matrices of five
# seeded random configs, concatenated})
MATRIX_CASES = {
    "n2-t0=0.1": (
        SplitterPlan(0.1), 1,
        {
            "zero": "c051d9ee353869b920d658352e27d74938b4512b6d381ae96a1c581100d8f3a8",
            "random": "943830e4b21cc4109be60098ceb37775f50148e6f0d7635e9ec5dcfdfcf53192",
        },
    ),
    "n2-t0=0.3": (
        SplitterPlan(0.3), 2,
        {
            "zero": "03fe93488179f2fe345a020dda830804fe5921cb574e7f28f5101e3e690a90f5",
            "random": "4bd44b7a11f3a0e450523dbaf557651bd01e54780373b1df64662f9dfa187c71",
        },
    ),
    "n2-t0=0.5": (
        SplitterPlan(0.5), 3,
        {
            "zero": "7241b4e34822cea1657ca7988403200b42caa34f4a3650abad02e8f187bec695",
            "random": "25e88c0cf60b257a31ca414435ec3eecae28478a2f9f637056d22f29dcfff71e",
        },
    ),
    "n2-t0=0.77": (
        SplitterPlan(0.77), 4,
        {
            "zero": "af79544b6deaf019f4128ef197aaaeabad0fd563a7aaa53a1e3f655fb53b122f",
            "random": "234b6e4bacfe0aff25d8de8ebafd716c7eacf4bb5c5ecd865c2ec0a57021b072",
        },
    ),
    "n2-nstate": (
        NStatePlan(2), 5,
        {
            "zero": "4503d05e6fb36208a2eb8e326d77a606a2e4b5beca4fb95557720b75fe9b5421",
            "random": "3ec98ce8a583c7a3ada9d7aa877bcbf76860e32c8ab5e6e8b59d618f20a4e447",
        },
    ),
    "n3-nstate": (
        NStatePlan(3), 6,
        {
            "zero": "61f66ef4aad0d96742eaa81b7b108e64884f8dc50291eeef737b4fa66c9c0a76",
            "random": "7372794aefff676d8e4cf33347ef519712d3c7c709b1113aaf4d10127c4e9fbc",
        },
    ),
    "n8-nstate": (
        NStatePlan(8), 7,
        {
            "zero": "90322788657d9cdd27e91c95301b033972f9f2f1e70497392720868cc75add15",
            "random": "dcf008cd45e2c49c5f924afce900109746d92ee66e98b985701bdb03c3bbd25c",
        },
    ),
}


def _matrix_digest(plan, seed, phases):
    rng = np.random.default_rng(seed)
    n = plan.n_ports
    h = hashlib.sha256()
    for _ in range(5):
        cfg = _random_config(rng, n, plan)
        phi = np.zeros(n) if phases == "zero" else rng.normal(0.0, 1.0, size=n)
        h.update(click_matrix(cfg, phi).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("phases", ["zero", "random"])
@pytest.mark.parametrize("case", sorted(MATRIX_CASES))
def test_click_matrix_bytes_are_pinned(case, phases):
    plan, seed, expected = MATRIX_CASES[case]
    assert _matrix_digest(plan, seed, phases) == expected[phases]


@pytest.mark.parametrize("t", [0.0, 1e-300, 0.1, 1 / 3, 0.5, 0.77, 8 / 9, 1.0])
def test_splitter_stores_its_coefficients(t):
    bs = BeamSplitter(t)
    assert (bs.sqrt_t, bs.sqrt_r) == (math.sqrt(t), math.sqrt(1.0 - t))
