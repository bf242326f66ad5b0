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
from collections.abc import Callable
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
from .montecarlo import (MAX_BLOCKS, MAX_TRIALS_PER_BLOCK, Counts, ExperimentConfig,
                         ExperimentResult, fractions_from_blocks, run_experiment)
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
        # linspace steps by stop - start, which overflows to inf past the float range.
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"stop - start must be a finite number, got start={self.start!r}, "
                             f"stop={self.stop!r}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ScenarioParams:
    """Fixed experiment parameters shared by every point of a sweep; each
    field is checked, and named, when the parameters are built."""

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

    def __post_init__(self) -> None:
        for names, lo, hi in ((("t0", "eta1", "eta2", "vis1", "vis2"), 0, 1),
                              (("dark", "intensity1", "intensity2", "drift_sigma"), 0, math.inf),
                              (("phase1_deg", "phase2_deg"), -math.inf, math.inf)):
            for name in names:
                object.__setattr__(self, name, as_real(name, getattr(self, name), lo, hi))
        for name, lo, hi in (("trials", 1, MAX_TRIALS_PER_BLOCK), ("blocks", 1, MAX_BLOCKS),
                             ("seed", 0, None)):
            object.__setattr__(self, name, as_integer(name, getattr(self, name), lo, hi))
        if not isinstance(self.stabilize, (bool, np.bool_)):
            raise ValueError(f"stabilize must be True or False, got {self.stabilize!r}")
        object.__setattr__(self, "stabilize", bool(self.stabilize))


@dataclass(frozen=True)
class Table:
    """A named table; every row holds one cell per column."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValueError(f"rows[{i}] has {len(row)} cells, expected {len(self.columns)}, "
                                 "one per column")


def _subseed(seed: int, *tags: int) -> int:
    # Every sweep derives its experiment seeds here, from the checked params.seed.
    return int(np.random.SeedSequence((seed, *tags)).generate_state(1, np.uint64)[0])


def _runner(params: ScenarioParams, plan: Plan, detectors: tuple[DetectorModel, ...],
            interference: tuple[InterferenceModel, ...],
            workers: int) -> Callable[[tuple[ComplexAmplitude, ...], int, int], ExperimentResult]:
    """``run(programs, k, seed)``: one truth-conditioned experiment, the
    unknown always equal to ``programs[k]``.  Every run shares the models
    given here and one drift model and lock built from ``params``."""
    drift = DriftModel(params.drift_sigma) if params.drift_sigma != 0.0 else None
    stabilizer = StabilizerConfig() if params.stabilize else None

    def run(programs: tuple[ComplexAmplitude, ...], k: int, seed: int) -> ExperimentResult:
        cfg = ExperimentConfig(
            programs=programs, plan=plan, detectors=detectors, interference=interference,
            priors=tuple(float(j == k) for j in range(len(programs))),
            trials_per_block=params.trials, blocks=params.blocks, seed=seed,
            drift=drift, stabilizer=stabilizer,
        )
        return run_experiment(cfg, workers)

    return run


def _two_state_table(name: str, spec: SweepSpec, params: ScenarioParams, workers: int,
                     runs_at: Callable[[float], tuple]) -> Table:
    """One row per grid value x from the two runs ``runs_at(x)``, each
    given as ``(alpha1, alpha2, true_index)``: the first feeds the j=1
    columns, the second the j=2 columns, and both pool into the
    inconclusive column."""
    plan = SplitterPlan(params.t0)
    detectors = (DetectorModel(params.eta1, params.dark), DetectorModel(params.eta2, params.dark))
    visibilities = (InterferenceModel(params.vis1), InterferenceModel(params.vis2))
    run = _runner(params, plan, detectors, visibilities, workers)
    rows = []
    for point, x in enumerate(spec.grid().tolist()):
        measured, analytic, ideal, errors = [], [], [], []
        blocks: tuple[Counts, ...] = ()
        for tag, (alpha1, alpha2, k) in enumerate(runs_at(x), start=1):
            res = run((alpha1, alpha2), k, _subseed(params.seed, point, tag))
            f = res.fractions
            measured += [float(f.p_plus[k]), float(f.p_minus[k])]
            errors += [float(f.se_p_plus[k]), float(f.se_p_minus[k])]
            blocks += res.block_counts
            # Truth k is identified by a click at the other state's port.
            closed_form, eta = (analytic_p1, params.eta2) if k == 0 else (analytic_p2, params.eta1)
            analytic.append(closed_form(alpha1, alpha2, params.t0, eta))
            ideal.append(closed_form(alpha1, alpha2, params.t0, 1.0))
        pooled = fractions_from_blocks(blocks)
        rows.append((x, *measured, pooled.p_inconclusive, *analytic, *ideal, *errors,
                     pooled.se_p_inconclusive))
    return Table(name, RESULT_COLUMNS, tuple(rows))


def sweep_phase(spec: SweepSpec, params: ScenarioParams, workers: int = 1) -> Table:
    """Fractions against the phase difference (degrees) between the two
    program states, at fixed intensities."""
    def runs_at(x: float) -> tuple:
        alpha1 = from_intensity_phase(params.intensity1, math.radians(params.phase1_deg))
        alpha2 = from_intensity_phase(params.intensity2, math.radians(params.phase1_deg + x))
        return (alpha1, alpha2, 0), (alpha1, alpha2, 1)

    return _two_state_table("phase_sweep", spec, params, workers, runs_at)


def sweep_intensity(spec: SweepSpec, params: ScenarioParams, workers: int = 1) -> Table:
    """Fractions against the common mean photon number of both program
    states, at the phase difference fixed by ``params`` (180 degrees by
    default, where the states are farthest apart)."""
    dphi = math.radians(params.phase2_deg - params.phase1_deg)

    def runs_at(x: float) -> tuple:
        alpha1 = from_intensity_phase(x, math.radians(params.phase1_deg))
        alpha2 = from_intensity_phase(x, math.radians(params.phase1_deg) + dphi)
        return (alpha1, alpha2, 0), (alpha1, alpha2, 1)

    return _two_state_table("intensity_sweep", spec, params, workers, runs_at)


def sweep_ratio(spec: SweepSpec, params: ScenarioParams, workers: int = 1) -> Table:
    """Fractions against the intensity ratio |alpha_2|^2 / |alpha_1|^2.

    Each ratio is measured twice with the unknown equal to state 1: once
    with the states 180 degrees apart (j=1 columns, minimal overlap) and
    once in phase (j=2 columns, maximal overlap).  The analytic columns
    carry the matching pair of curves; both pairs coincide at r=0 where
    state 2 is vacuum and the phase is meaningless.
    """
    phi1 = math.radians(params.phase1_deg)

    def runs_at(r: float) -> tuple:
        alpha1 = from_intensity_phase(params.intensity1, phi1)
        alpha2_opp = from_intensity_phase(r * params.intensity1, phi1 + math.pi)
        alpha2_same = from_intensity_phase(r * params.intensity1, phi1)
        return (alpha1, alpha2_opp, 0), (alpha1, alpha2_same, 0)

    return _two_state_table("ratio_sweep", spec, params, workers, runs_at)


def ring_programs(n: int, intensity: float, phase_deg: float = 0.0) -> tuple[ComplexAmplitude, ...]:
    """n program states of equal intensity spread evenly in phase."""
    n = as_integer("n", n, 1)
    intensity = as_real("intensity", intensity, 0)
    base = math.radians(as_real("phase_deg", phase_deg, -math.inf))
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
    n = as_integer("n", n, 2, MAX_STATES)
    plan = NStatePlan(n)
    if programs is None:
        programs = ring_programs(n, params.intensity1, params.phase1_deg)
    run = _runner(params, plan, (DetectorModel(params.eta1, params.dark),),
                  (InterferenceModel(params.vis1),), workers)
    ideal_det = DetectorModel(params.eta1, 0.0)
    rows = []
    for k in range(n):
        f = run(programs, k, _subseed(params.seed, k, 0)).fractions
        rows.append((k + 1, analytic_nstate_success(programs, k, plan, ideal_det),
                     float(f.p_plus[k]), float(f.p_minus[k]), f.p_inconclusive,
                     float(f.se_p_plus[k]), float(f.se_p_minus[k]), float(f.se_p_inconclusive)))
    return Table(f"nstate_report_n{n}", NSTATE_COLUMNS, tuple(rows))
