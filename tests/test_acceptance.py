"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; the
slowest criterion (the dark-count floor at 1e8 trials) takes tens of
seconds, everything else is fast.
"""

import math

import numpy as np
import pytest

from udiscrim import cli, simulate_drift_paths
from udiscrim.detection import (
    DetectorModel,
    InterferenceModel,
    analytic_p1,
    analytic_p2,
    nstate_success_from_distances,
)
from udiscrim.drift import (
    ProbeModel,
    StabilizerConfig,
    fringe_visibility_equivalent,
)
from udiscrim.montecarlo import (
    ExperimentConfig,
    binomial_stderr,
    click_matrix,
    run_experiment,
)
from udiscrim.network import NStatePlan, SplitterPlan, detector_amplitudes
from udiscrim.optics import from_intensity_phase
from udiscrim.sweeps import ScenarioParams, SweepSpec, sweep_intensity, sweep_ratio

# Frozen direct evaluations of the success law (independent oracles).
P_ETA53_D2_4 = 0.5067142541534744    # 1 - exp(-0.53 * 4/3)
P_IDEAL_D2_4 = 0.7364028618842733    # 1 - exp(-4/3)
P_RATIO_R0 = 0.20940279757039926     # 1 - exp(-0.53 * 1.33 / 3)


def _report(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS{suffix}")


def test_splitting_ratio_reproduction():
    plan = SplitterPlan(0.5)
    assert plan.t1 == 2 / 3
    assert plan.t2 == 1 / 3
    rng = np.random.default_rng(101)
    worst = 0.0
    for t0 in rng.uniform(1e-9, 1 - 1e-9, size=2000):
        plan = SplitterPlan(float(t0))
        worst = max(worst, abs(plan.t1 * (1 + t0) - 1.0))
        worst = max(worst, abs(plan.t2 * (2 - t0) - (1 - t0)))
    assert worst < 1e-15
    _report("splitting-ratio reproduction", f"worst defining-relation residual {worst:.2e}")


def test_null_port_unambiguity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        t0 = float(rng.uniform(1e-3, 1 - 1e-3))
        a1 = complex(rng.normal(), rng.normal())
        a2 = complex(rng.normal(), rng.normal())
        plan = SplitterPlan(t0)
        worst = max(worst, abs(detector_amplitudes(a1, (a1, a2), plan)[0]))
        worst = max(worst, abs(detector_amplitudes(a2, (a1, a2), plan)[1]))
    assert worst < 1e-12

    cfg = ExperimentConfig(
        programs=(from_intensity_phase(1.0, 0.0), from_intensity_phase(1.0, math.pi)),
        plan=SplitterPlan(0.5),
        detectors=(DetectorModel(0.53, 0.0),),
        interference=(InterferenceModel(1.0),),
        trials_per_block=100_000,
        blocks=10,
        seed=202,
    )
    res = run_experiment(cfg, workers=4)
    assert res.counts.c_tot == 10**6
    assert sum(res.counts.c_minus) == 0
    assert res.counts.double_clicks == 0
    _report(
        "null-port unambiguity",
        f"worst residual amplitude {worst:.2e}; 0 erroneous in 1e6 trials",
    )


def test_success_probability_convergence():
    assert analytic_p1(1 + 0j, -1 + 0j, 0.5, 0.53) == pytest.approx(P_ETA53_D2_4, rel=1e-12)
    assert analytic_p1(1 + 0j, -1 + 0j, 0.5, 1.0) == pytest.approx(P_IDEAL_D2_4, rel=1e-12)
    assert round(P_ETA53_D2_4, 4) == 0.5067
    assert round(P_IDEAL_D2_4, 4) == 0.7364

    rng = np.random.default_rng(103)
    worst_pull = 0.0
    for case in range(20):
        t0 = float(rng.uniform(0.1, 0.9))
        a1 = from_intensity_phase(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0, 2 * math.pi)))
        a2 = from_intensity_phase(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0, 2 * math.pi)))
        eta1 = float(rng.uniform(0.3, 1.0))
        eta2 = float(rng.uniform(0.3, 1.0))
        cfg = ExperimentConfig(
            programs=(a1, a2),
            plan=SplitterPlan(t0),
            detectors=(DetectorModel(eta1, 0.0), DetectorModel(eta2, 0.0)),
            interference=(InterferenceModel(1.0),),
            trials_per_block=100_000,
            blocks=10,
            seed=1000 + case,
        )
        res = run_experiment(cfg, workers=4)
        want = 0.5 * analytic_p1(a1, a2, t0, eta2) + 0.5 * analytic_p2(a1, a2, t0, eta1)
        got = res.counts.conclusive / res.counts.c_tot
        se = binomial_stderr(want, res.counts.c_tot)
        pull = abs(got - want) / se if se > 0 else 0.0
        worst_pull = max(worst_pull, pull)
        assert abs(got - want) < 4 * se, f"case {case}: {got} vs {want} (se {se})"
    _report(
        "success-probability convergence",
        f"20 scenarios x 1e6 trials, worst deviation {worst_pull:.2f} standard errors",
    )


def test_intensity_curve():
    spec = SweepSpec(0.0, 3.0, 7)
    params = ScenarioParams(dark=0.0, vis1=1.0, vis2=1.0, trials=50_000, blocks=4, seed=104)
    table = sweep_intensity(spec, params)
    idx = {c: i for i, c in enumerate(table.columns)}
    n_trials = params.trials * params.blocks
    last_measured = -1.0
    for row in table.rows:
        x = row[idx["x"]]
        measured = row[idx["analytic_p1"]]
        ideal = row[idx["analytic_p1_ideal"]]
        assert measured == pytest.approx(-math.expm1(-0.53 * 4 * x / 3), rel=1e-9, abs=1e-12)
        assert ideal == pytest.approx(-math.expm1(-4 * x / 3), rel=1e-9, abs=1e-12)
        assert ideal >= measured
        assert measured > last_measured
        last_measured = measured
        for mc, want in (
            (row[idx["p_plus_1"]], row[idx["analytic_p1"]]),
            (row[idx["p_plus_2"]], row[idx["analytic_p2"]]),
        ):
            assert abs(mc - want) <= 4 * max(binomial_stderr(want, n_trials), 1e-12)
    _report("intensity curve", "both curves exponential, ideal above measured, MC within 4 se")


def test_ratio_curve_geometry():
    spec = SweepSpec(0.0, 4.0, 9)
    params = ScenarioParams(
        dark=0.0, vis1=1.0, vis2=1.0, intensity1=1.33, trials=50_000, blocks=4, seed=105
    )
    table = sweep_ratio(spec, params)
    idx = {c: i for i, c in enumerate(table.columns)}
    n_trials = params.trials * params.blocks
    rows = {row[idx["x"]]: row for row in table.rows}
    assert rows[1.0][idx["analytic_p2"]] == 0.0  # in-phase states coincide exactly at r=1
    assert rows[0.0][idx["analytic_p1"]] == pytest.approx(P_RATIO_R0, rel=1e-12)
    assert rows[0.0][idx["analytic_p2"]] == pytest.approx(P_RATIO_R0, rel=1e-12)
    for x, row in rows.items():
        if x > 0:
            assert row[idx["analytic_p1"]] > row[idx["analytic_p2"]]
        for mc, want in (
            (row[idx["p_plus_1"]], row[idx["analytic_p1"]]),
            (row[idx["p_plus_2"]], row[idx["analytic_p2"]]),
        ):
            assert abs(mc - want) <= 4 * max(binomial_stderr(want, n_trials), 1e-12)
    _report(
        "ratio-curve geometry",
        f"in-phase zero at r=1, curves meet at r=0 with value {P_RATIO_R0:.4f}",
    )


def test_dark_count_floor():
    alpha = from_intensity_phase(1.0, 0.0)
    dark = 4e-7
    cfg = ExperimentConfig(
        programs=(alpha, alpha),
        plan=SplitterPlan(0.5),
        detectors=(DetectorModel(0.53, dark),),
        interference=(InterferenceModel(1.0),),
        trials_per_block=10_000_000,
        blocks=10,
        seed=106,
    )
    res = run_experiment(cfg, workers=4)
    assert res.counts.c_tot == 10**8
    p_dark = -math.expm1(-dark)
    want = 2.0 * p_dark * (1.0 - p_dark)
    got = res.counts.conclusive / res.counts.c_tot
    se = binomial_stderr(want, res.counts.c_tot)
    assert abs(got - want) < 4 * se
    _report(
        "dark-count floor",
        f"conclusive {res.counts.conclusive} of 1e8 vs expected {want * 1e8:.1f} +- {4 * se * 1e8:.1f}",
    )


def test_nstate_properties():
    # The general exclusion classifier must reproduce the dedicated
    # two-detector rule click for click on an identical stream.
    cfg = ExperimentConfig(
        programs=(from_intensity_phase(1.0, 0.0), from_intensity_phase(1.0, math.pi)),
        plan=NStatePlan(2),
        detectors=(DetectorModel(0.53, 2e-4),),
        interference=(InterferenceModel(0.98),),
        trials_per_block=100_000,
        blocks=10,
        seed=107,
    )
    res = run_experiment(cfg)

    # Independent replay of the same counter-based stream, classified by
    # the two-detector rule: D1 alone reports state 2, D2 alone reports
    # state 1, anything else is inconclusive.
    meas_ss = np.random.SeedSequence(cfg.seed).spawn(3)[0]
    matrix = click_matrix(cfg, np.zeros(2))
    cdf = np.cumsum(cfg.priors)
    bg = np.random.Philox(meas_ss)
    u = np.random.Generator(bg).random(cfg.total_trials * 4).reshape(-1, 4)
    truth = np.searchsorted(cdf, u[:, 0], side="right")
    d1 = u[:, 1] < matrix[truth, 0]
    d2 = u[:, 2] < matrix[truth, 1]
    reported = np.where(d1 & ~d2, 1, np.where(d2 & ~d1, 0, -1))
    c_plus = tuple(int(((reported == j) & (truth == j)).sum()) for j in range(2))
    c_minus = tuple(int(((reported == 1 - j) & (truth == j)).sum()) for j in range(2))
    double_clicks = int((d1 & d2).sum())
    no_clicks = int((~d1 & ~d2).sum())
    assert res.counts.c_plus == c_plus
    assert res.counts.c_minus == c_minus
    assert res.counts.double_clicks == double_clicks
    assert res.counts.no_clicks == no_clicks

    # Success at fixed pairwise distance strictly shrinks as states are added.
    values = [nstate_success_from_distances((4.0,) * (n - 1), n, 0.53) for n in range(2, 9)]
    assert all(b < a for a, b in zip(values, values[1:]))
    _report(
        "n-state properties",
        f"two-detector replay identical over 1e6 trials; success falls {values[0]:.4f} -> {values[-1]:.4f} for n=2..8",
    )


def test_stabilization_efficacy():
    sigma, blocks, paths, seed = 0.05, 100, 100, 11
    free = simulate_drift_paths(sigma, blocks, paths, seed=seed)
    median_drift = float(np.median(np.abs(free[:, -1])))
    assert median_drift > 0.3

    probe = ProbeModel(
        coupling=1 / 3,
        program_intensity=1.33,
        visibility=0.98,
        detector=DetectorModel(0.53, 4e-7),
    )
    locked = simulate_drift_paths(
        sigma, blocks, paths, seed=seed, stabilizer=StabilizerConfig(), probe=probe
    )
    vis = np.vectorize(fringe_visibility_equivalent)(locked)
    median_vis = float(np.median(vis.mean(axis=1)))
    assert median_vis >= 0.97
    _report(
        "stabilization efficacy",
        f"locked median visibility {median_vis:.4f}, free median |phi| {median_drift:.3f} rad",
    )


def test_preset_determinism(tmp_path):
    args = [
        "sweep-ratio", "--points", "3", "--seed", "33",
        "--trials", "2000", "--blocks", "2",
    ]
    outputs = {}
    for tag, workers in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / f"{tag}.csv"
        rc = cli.main([*args, "--workers", str(workers), "--out", str(out)])
        assert rc == 0
        outputs[tag] = out.read_bytes()
    assert outputs["a"] == outputs["b"] == outputs["c"]
    _report("preset determinism", "byte-identical CSV across reruns and 1 vs 8 workers")
