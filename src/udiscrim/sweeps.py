"""Scenario sweeps: tables of measured fractions against analytic curves.

Each sweep point is measured the way the hardware experiment would do it:
one run with the unknown state set equal to program state 1 and one with
it set equal to program state 2 (one run per phase setting for the
intensity-ratio sweep).  Measured fractions are therefore directly
comparable with the analytic success probabilities in the neighbouring
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import (
    DetectorModel,
    InterferenceModel,
    analytic_nstate_success,
    analytic_p1,
    analytic_p2,
)
from .drift import DriftModel, StabilizerConfig
from .montecarlo import Counts, ExperimentConfig, fractions_from_blocks, run_experiment
from .network import NStatePlan, Plan, SplitterPlan
from .optics import ComplexAmplitude, as_integer, as_real, from_intensity_phase

# Grid caps, checked before anything is allocated.  Every sweep point runs
# at least two experiments.  At n states every trial draws n + 1 numbers;
# the kernel draws them in fixed 393 KB slices, so memory does not grow
# with n, but each block's click matrix costs n(3n - 1) beam-splitter
# evaluations.
MAX_POINTS = 100_000
MAX_STATES = 64

RESULT_COLUMNS = (
    "x",
    "p_plus_1",
    "p_minus_1",
    "p_plus_2",
    "p_minus_2",
    "p_inconclusive",
    "analytic_p1",
    "analytic_p2",
    "analytic_p1_ideal",
    "analytic_p2_ideal",
    "se_p_plus_1",
    "se_p_minus_1",
    "se_p_plus_2",
    "se_p_minus_2",
    "se_p_inconclusive",
)

NSTATE_COLUMNS = (
    "k",
    "analytic_success",
    "p_plus",
    "p_minus",
    "p_inconclusive",
    "se_p_plus",
    "se_p_minus",
    "se_p_inconclusive",
)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep grid: ``points`` evenly spaced values from ``start`` to ``stop``."""

    start: float
    stop: float
    points: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", as_integer("points", self.points, 2, MAX_POINTS))
        for name in ("start", "stop"):
            object.__setattr__(self, name, as_real(name, getattr(self, name), -math.inf))

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ScenarioParams:
    """Fixed experiment parameters shared by every point of a sweep."""

    t0: float = 0.5
    eta1: float = 0.53
    eta2: float = 0.53
    dark: float = 4e-7
    vis1: float = 0.98
    vis2: float = 0.98
    intensity1: float = 1.0
    phase1_deg: float = 0.0
    intensity2: float = 1.0
    phase2_deg: float = 180.0
    trials: int = 100_000
    blocks: int = 10
    seed: int = 1
    drift_sigma: float = 0.0
    stabilize: bool = False


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]


def _subseed(seed: int, *tags: int) -> int:
    # Every sweep derives its experiment seeds here first.
    seed = as_integer("seed", seed, 0)
    return int(np.random.SeedSequence((seed, *tags)).generate_state(1, np.uint64)[0])


def _config(
    params: ScenarioParams,
    programs: tuple[ComplexAmplitude, ...],
    plan: Plan,
    detectors: tuple[DetectorModel, ...],
    interference: tuple[InterferenceModel, ...],
    true_index: int,
    seed: int,
) -> ExperimentConfig:
    """One truth-conditioned experiment: the unknown always equals
    ``programs[true_index]``; drift and the lock follow ``params``."""
    return ExperimentConfig(
        programs=programs,
        plan=plan,
        detectors=detectors,
        interference=interference,
        priors=tuple(float(j == true_index) for j in range(len(programs))),
        trials_per_block=params.trials,
        blocks=params.blocks,
        seed=seed,
        drift=DriftModel(params.drift_sigma) if params.drift_sigma != 0.0 else None,
        stabilizer=StabilizerConfig() if params.stabilize else None,
    )


def _row(
    params: ScenarioParams,
    x: float,
    point: int,
    runs: tuple[tuple[ComplexAmplitude, ComplexAmplitude, int], ...],
    workers: int,
) -> tuple[float, ...]:
    """One sweep row from two runs, each given as ``(alpha1, alpha2,
    true_index)``: the first feeds the j=1 columns, the second the j=2
    columns, and both pool into the inconclusive column."""
    plan = SplitterPlan(params.t0)
    detectors = (DetectorModel(params.eta1, params.dark), DetectorModel(params.eta2, params.dark))
    interference = (InterferenceModel(params.vis1), InterferenceModel(params.vis2))
    measured, analytic, ideal, errors = [], [], [], []
    blocks: tuple[Counts, ...] = ()
    for tag, (alpha1, alpha2, k) in enumerate(runs, start=1):
        cfg = _config(
            params, (alpha1, alpha2), plan, detectors, interference, k,
            _subseed(params.seed, point, tag),
        )
        res = run_experiment(cfg, workers)
        f = res.fractions
        measured += [float(f.p_plus[k]), float(f.p_minus[k])]
        errors += [float(f.se_p_plus[k]), float(f.se_p_minus[k])]
        blocks += res.block_counts
        # Truth k is identified by a click at the other state's port.
        closed_form, eta = (analytic_p1, params.eta2) if k == 0 else (analytic_p2, params.eta1)
        analytic.append(closed_form(alpha1, alpha2, params.t0, eta))
        ideal.append(closed_form(alpha1, alpha2, params.t0, 1.0))
    pooled = fractions_from_blocks(blocks)
    return (
        x, *measured, pooled.p_inconclusive, *analytic, *ideal, *errors,
        pooled.se_p_inconclusive,
    )


def sweep_phase(spec: SweepSpec, params: ScenarioParams, workers: int = 1) -> Table:
    """Fractions against the phase difference (degrees) between the two
    program states, at fixed intensities."""
    rows = []
    for i, x in enumerate(spec.grid()):
        alpha1 = from_intensity_phase(params.intensity1, math.radians(params.phase1_deg))
        alpha2 = from_intensity_phase(
            params.intensity2, math.radians(params.phase1_deg + x)
        )
        rows.append(_row(params, float(x), i, ((alpha1, alpha2, 0), (alpha1, alpha2, 1)), workers))
    return Table("phase_sweep", RESULT_COLUMNS, tuple(rows))


def sweep_intensity(spec: SweepSpec, params: ScenarioParams, workers: int = 1) -> Table:
    """Fractions against the common mean photon number of both program
    states, at the phase difference fixed by ``params`` (180 degrees by
    default, where the states are farthest apart)."""
    rows = []
    dphi = math.radians(params.phase2_deg - params.phase1_deg)
    for i, x in enumerate(spec.grid()):
        alpha1 = from_intensity_phase(float(x), math.radians(params.phase1_deg))
        alpha2 = from_intensity_phase(float(x), math.radians(params.phase1_deg) + dphi)
        rows.append(_row(params, float(x), i, ((alpha1, alpha2, 0), (alpha1, alpha2, 1)), workers))
    return Table("intensity_sweep", RESULT_COLUMNS, tuple(rows))


def sweep_ratio(spec: SweepSpec, params: ScenarioParams, workers: int = 1) -> Table:
    """Fractions against the intensity ratio |alpha_2|^2 / |alpha_1|^2.

    Each ratio is measured twice with the unknown equal to state 1: once
    with the states 180 degrees apart (j=1 columns, minimal overlap) and
    once in phase (j=2 columns, maximal overlap).  The analytic columns
    carry the matching pair of curves; both pairs coincide at r=0 where
    state 2 is vacuum and the phase is meaningless.
    """
    rows = []
    phi1 = math.radians(params.phase1_deg)
    for i, x in enumerate(spec.grid()):
        r = float(x)
        alpha1 = from_intensity_phase(params.intensity1, phi1)
        alpha2_opp = from_intensity_phase(r * params.intensity1, phi1 + math.pi)
        alpha2_same = from_intensity_phase(r * params.intensity1, phi1)
        runs = ((alpha1, alpha2_opp, 0), (alpha1, alpha2_same, 0))
        rows.append(_row(params, r, i, runs, workers))
    return Table("ratio_sweep", RESULT_COLUMNS, tuple(rows))


def ring_programs(n: int, intensity: float, phase_deg: float = 0.0) -> tuple[ComplexAmplitude, ...]:
    """n program states of equal intensity spread evenly in phase."""
    n = as_integer("n", n, 1)
    base = math.radians(phase_deg)
    return tuple(
        from_intensity_phase(intensity, base + 2.0 * math.pi * k / n) for k in range(n)
    )


def nstate_report(
    n: int,
    params: ScenarioParams,
    workers: int = 1,
    programs: tuple[ComplexAmplitude, ...] | None = None,
) -> Table:
    """Per-hypothesis success of the n-state scheme: analytic (dark counts
    off) beside measured fractions from one truth-k run per hypothesis.

    Defaults to program states of intensity ``params.intensity1`` spread
    evenly in phase; detector 1's efficiency and loop 1's visibility apply
    to every port.  The k column is the 1-based hypothesis label.
    """
    if not 2 <= n <= MAX_STATES:
        raise ValueError(f"need 2 to {MAX_STATES} program states, got n={n}")
    plan = NStatePlan(n)
    if programs is None:
        programs = ring_programs(n, params.intensity1, params.phase1_deg)
    det = DetectorModel(params.eta1, params.dark)
    ideal_det = DetectorModel(params.eta1, 0.0)
    vis = InterferenceModel(params.vis1)
    rows = []
    for k in range(n):
        cfg = _config(params, programs, plan, (det,), (vis,), k, _subseed(params.seed, k, 0))
        res = run_experiment(cfg, workers)
        rows.append(
            (
                k + 1,
                analytic_nstate_success(programs, k, plan, ideal_det),
                float(res.fractions.p_plus[k]),
                float(res.fractions.p_minus[k]),
                res.fractions.p_inconclusive,
                float(res.fractions.se_p_plus[k]),
                float(res.fractions.se_p_minus[k]),
                float(res.fractions.se_p_inconclusive),
            )
        )
    return Table(f"nstate_report_n{n}", NSTATE_COLUMNS, tuple(rows))
