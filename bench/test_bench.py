"""Tests of the benchmark's own oracle, checks and tracer.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import cmath
import csv
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import udiscrim.cli
import udiscrim.montecarlo
from udiscrim import (
    DetectorModel,
    DriftModel,
    ExperimentConfig,
    InterferenceModel,
    NStatePlan,
    SplitterPlan,
    analytic_p1,
    analytic_p2,
    click_matrix,
    run_experiment,
)

import oracle
from tracer import WRAPPED, Tracer


def _random_config(rng: np.random.Generator, n: int, two_state_plan: bool) -> ExperimentConfig:
    programs = tuple(complex(*rng.normal(size=2)) * rng.uniform(0.0, 2.0) for _ in range(n))
    plan = SplitterPlan(float(rng.uniform(0.05, 0.95))) if two_state_plan else NStatePlan(n)
    return ExperimentConfig(
        programs=programs,
        plan=plan,
        detectors=tuple(
            DetectorModel(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1e-2)))
            for _ in range(n)
        ),
        interference=tuple(InterferenceModel(float(rng.uniform(0.0, 1.0))) for _ in range(n)),
    )


@pytest.mark.parametrize("n,two_state_plan", [(2, True), (2, False), (3, False), (8, False)])
def test_closed_form_matches_click_matrix(n, two_state_plan):
    rng = np.random.default_rng(n + 10 * two_state_plan)
    for _ in range(50):
        cfg = _random_config(rng, n, two_state_plan)
        phases = rng.normal(0.0, 1.0, size=n)
        np.testing.assert_allclose(oracle.click_law(cfg, phases), click_matrix(cfg, phases),
                                   rtol=0.0, atol=1e-14)


def test_outcome_law_is_a_distribution():
    rng = np.random.default_rng(5)
    cfg = _random_config(rng, 8, False)
    survivor, none = oracle.outcome_law(cfg, rng.normal(size=8))
    total = survivor.sum(axis=1) + none
    assert np.all(survivor >= 0.0) and np.all(total <= 1.0 + 1e-15)


def test_ideal_limit_is_the_paper_closed_form():
    a1, a2 = 0.8 + 0.1j, -0.7 + 0.3j
    cfg = ExperimentConfig(
        programs=(a1, a2), plan=SplitterPlan(0.3),
        detectors=(DetectorModel(0.6), DetectorModel(0.4)),
        interference=(InterferenceModel(1.0),),
    )
    survivor, _ = oracle.outcome_law(cfg, (0.0, 0.0))
    assert survivor[0, 0] == pytest.approx(analytic_p1(a1, a2, 0.3, 0.4), rel=1e-14)
    assert survivor[1, 1] == pytest.approx(analytic_p2(a1, a2, 0.3, 0.6), rel=1e-14)
    assert survivor[0, 1] == 0.0 and survivor[1, 0] == 0.0


def test_z_check_accepts_the_engine_and_rejects_a_wrong_law():
    rng = np.random.default_rng(9)
    cfg = dataclasses.replace(
        _random_config(rng, 3, False), trials_per_block=20_000, blocks=5, seed=3,
        drift=DriftModel(0.3),
    )
    res = run_experiment(cfg)
    assert oracle.worst_z(cfg, res.counts, res.phase_history) < oracle.Z_BOUND
    # The same counts against the law without the drift phases must fail.
    assert oracle.worst_z(cfg, res.counts, np.zeros_like(res.phase_history)) > oracle.Z_BOUND


def test_small_cells_use_the_exact_poisson_tail():
    stats = pytest.importorskip("scipy.stats")
    normal = stats.norm
    for x, lam in [(9, 1.588), (0, 3.0), (1, 7.5), (40, 20.0), (150, 180.0)]:
        tail = stats.poisson.sf(x - 1, lam) if x > lam else stats.poisson.cdf(x, lam)
        want = -normal.ppf(tail) if x > lam else normal.ppf(tail)
        assert oracle.cell_z(x, lam, lam, 10**6) == pytest.approx(want, rel=1e-9)
        # The same cell seen from its complement flips the sign only.
        assert oracle.cell_z(10**6 - x, 10**6 - lam, lam, 10**6) == pytest.approx(-want, rel=1e-9)
    assert oracle.cell_z(0, 0.0, 0.0, 100) == 0.0
    assert oracle.cell_z(1, 0.0, 0.0, 100) == float("inf")
    assert oracle.cell_z(5300, 5000.0, 2500.0, 10**4) == pytest.approx(6.0)


def _sweep_phase_problems(tables: dict[float, str], grid: np.ndarray, n_trials: int) -> list[str]:
    """Every row of a default ``sweep-phase`` run against the closed form
    computed from the CLI's own inputs."""
    problems = []
    plan = SimpleNamespace(t0=0.5)
    kappa = oracle.couplings(plan, 2)
    for intensity, text in tables.items():
        rows = list(csv.DictReader(text.splitlines()))
        assert len(rows) == len(grid)
        for row, x in zip(rows, grid):
            v = {k: float(val) for k, val in row.items()}
            a1 = cmath.rect(math.sqrt(intensity), 0.0)
            a2 = cmath.rect(math.sqrt(intensity), math.radians(x))
            cfg = SimpleNamespace(
                programs=(a1, a2), plan=plan,
                interference=(SimpleNamespace(visibility=0.98),) * 2,
                detectors=(SimpleNamespace(eta=0.53, dark_mean=4e-7),) * 2,
            )
            surv, _ = oracle.outcome_law(cfg, (0.0, 0.0))
            law = {
                "p_plus_1": surv[0, 0], "p_minus_1": surv[0, 1],
                "p_plus_2": surv[1, 1], "p_minus_2": surv[1, 0],
            }
            for col, pi in law.items():
                z = oracle.cell_z(v[col] * n_trials, n_trials * pi, n_trials * pi * (1 - pi), n_trials)
                if abs(z) > oracle.Z_BOUND:
                    problems.append(f"I={intensity} x={x}: {col} z={z:.2f}")
            d2 = abs(a1 - a2) ** 2
            closed = {
                "x": x,
                "analytic_p1": oracle.analytic_success(d2, kappa[1], 0.53),
                "analytic_p2": oracle.analytic_success(d2, kappa[0], 0.53),
                "analytic_p1_ideal": oracle.analytic_success(d2, kappa[1], 1.0),
                "analytic_p2_ideal": oracle.analytic_success(d2, kappa[0], 1.0),
                "p_inconclusive": 1.0 - (
                    v["p_plus_1"] + v["p_minus_1"] + v["p_plus_2"] + v["p_minus_2"]
                ) / 2.0,
            }
            for col, want in closed.items():
                if not math.isclose(v[col], want, rel_tol=1e-12, abs_tol=1e-15):
                    problems.append(f"I={intensity} x={x}: {col}={v[col]!r}, closed form {want!r}")
    return problems


def test_sweep_phase_csv_matches_the_closed_form(tmp_path):
    trials, blocks, points, start = 50_000, 2, 5, 17.5
    assert udiscrim.cli.main([
        "sweep-phase", "--start", str(start), "--stop", str(start + 288), "--points", str(points),
        "--trials", str(trials), "--blocks", str(blocks), "--seed", "3",
        "--out", str(tmp_path / "phase.csv"),
    ]) == 0
    tables = {i: (tmp_path / f"phase_I{i:g}.csv").read_text() for i in (0.25, 0.5, 1.0)}
    grid = np.linspace(start, start + 288, points)
    assert _sweep_phase_problems(tables, grid, trials * blocks) == []
    # One fraction moved by 0.01 is caught.
    header, first, *rest = tables[0.5].splitlines()
    cells = first.split(",")
    cells[1] = repr(float(cells[1]) + 0.01)  # p_plus_1 of the first point
    tables[0.5] = "\n".join([header, ",".join(cells), *rest])
    assert any("p_plus_1" in p for p in _sweep_phase_problems(tables, grid, trials * blocks))


def test_tracer_counts_and_self_time_add_up(tmp_path):
    n, blocks = 3, 2
    tracer = Tracer()
    originals = [getattr(m, a) for m, a, _, _ in WRAPPED]
    with tracer.installed():
        code = udiscrim.cli.main([
            "nstate", "--n", str(n), "--trials", "200", "--blocks", str(blocks),
            "--drift-sigma", "0.1", "--stabilize", "--out", str(tmp_path / "r.csv"),
        ])
    assert code == 0
    assert [getattr(m, a) for m, a, _, _ in WRAPPED] == originals
    calls = tracer.calls
    assert calls["montecarlo.run_experiment"] == n
    assert calls["montecarlo.click_matrix"] == n * blocks
    # Per click matrix: n port evaluations of (n - 1) split taps + 2n stage passes.
    assert calls["optics.bs_transform"] == n * blocks * n * (3 * n - 1)
    assert calls["drift.stabilize"] == n * blocks
    assert tracer.bytes_written == (tmp_path / "r.csv").stat().st_size
    layers = {layer for _, _, layer, _ in WRAPPED}
    assert all(tracer.self_ns[layer] >= 0 for layer in layers)
    assert sum(tracer.self_ns[layer] for layer in layers) == tracer.total_ns["cli.main"]
    ids = {span[1] for span in tracer.spans}
    assert all(parent in ids or parent == -1 for _, _, parent, _, _ in tracer.spans)
