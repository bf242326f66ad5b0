"""Simulator of a programmable unambiguous discriminator of weak coherent
states.

An unknown coherent pulse, promised to equal one of several known program
states, interferes with each of them in a small beam-splitter network.
Destructive interference keeps the detector facing the matching program
state dark, so any click excludes one hypothesis and error-free
identification follows from photon counting alone.  The package provides
the network algebra, realistic detector models, analytic success
probabilities, a reproducible per-pulse Monte Carlo engine, phase-drift
stabilization and sweep tables for the standard experiment scenarios.
"""

from .detection import (
    DetectorModel,
    InterferenceModel,
    analytic_nstate_success,
    analytic_p1,
    analytic_p2,
    click_probability,
    nstate_success_from_distances,
    port_mean_photons,
)
from .drift import (
    DriftModel,
    ProbeModel,
    StabilizerConfig,
    evolve,
    fringe_visibility_equivalent,
    stabilize,
)
from .montecarlo import (
    Counts,
    ExperimentConfig,
    ExperimentResult,
    Fractions,
    InvariantViolation,
    binomial_stderr,
    click_matrix,
    fractions_from_blocks,
    run_experiment,
    run_trial,
    simulate_drift_paths,
)
from .network import (
    NStatePlan,
    SplitterPlan,
    classify,
    detector_amplitudes,
)
from .optics import from_intensity_phase, intensity
from .output import csv_bytes, emit, svg_bytes, write_csv, write_svg
from .sweeps import (
    NSTATE_COLUMNS,
    RESULT_COLUMNS,
    ScenarioParams,
    SweepSpec,
    Table,
    nstate_report,
    ring_programs,
    sweep_intensity,
    sweep_phase,
    sweep_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "Counts",
    "DetectorModel",
    "DriftModel",
    "ExperimentConfig",
    "ExperimentResult",
    "Fractions",
    "InterferenceModel",
    "InvariantViolation",
    "NSTATE_COLUMNS",
    "NStatePlan",
    "ProbeModel",
    "RESULT_COLUMNS",
    "ScenarioParams",
    "SplitterPlan",
    "StabilizerConfig",
    "SweepSpec",
    "Table",
    "analytic_nstate_success",
    "analytic_p1",
    "analytic_p2",
    "binomial_stderr",
    "classify",
    "click_matrix",
    "click_probability",
    "csv_bytes",
    "detector_amplitudes",
    "emit",
    "evolve",
    "fractions_from_blocks",
    "fringe_visibility_equivalent",
    "from_intensity_phase",
    "intensity",
    "nstate_report",
    "nstate_success_from_distances",
    "port_mean_photons",
    "ring_programs",
    "run_experiment",
    "run_trial",
    "simulate_drift_paths",
    "stabilize",
    "svg_bytes",
    "sweep_intensity",
    "sweep_phase",
    "sweep_ratio",
    "write_csv",
    "write_svg",
]
