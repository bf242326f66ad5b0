"""Slow interferometric phase drift and the between-block lock that
corrects it.

Thermal drift is modelled as an independent Gaussian random walk of each
loop's phase error, one step per measurement block (drift is slow against
the nanosecond pulses, and corrections happen only between blocks).  The
stabilizer is a dither-and-lock controller: before a block it fires probe
pulses with the unknown set equal to the loop's own program state, reads
the dark-port click rate at two dither offsets, converts the rate
difference into a phase estimate and applies a proportional correction.
Probe pulses never enter the measurement statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import DetectorModel, click_probability


@dataclass(frozen=True)
class DriftModel:
    """Random-walk scale of the phase error, in radians per sqrt(block)."""

    sigma: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.sigma < math.inf):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class StabilizerConfig:
    """Dither-and-lock settings; a run without the lock passes ``None``."""

    probe_trials: int = 2000
    dither: float = 0.2
    gain: float = 0.7

    def __post_init__(self) -> None:
        if self.probe_trials <= 0:
            raise ValueError("stabilizer needs probe_trials >= 1")
        if not (0.0 < self.dither < math.inf):
            raise ValueError(f"dither must be finite and positive, got {self.dither}")
        if not (0.0 < self.gain <= 1.0):
            raise ValueError(f"gain must lie in (0, 1], got {self.gain}")


@dataclass(frozen=True)
class ProbeModel:
    """What the controller knows about one loop's dark port.

    ``coupling`` is the intensity fraction each of the two interfering
    fields keeps at the dark port (t0/(1+t0) or (1-t0)/(2-t0) for the
    two-state plan, 1/(n+1) for the n-state plan) and
    ``program_intensity`` is the mean photon number of the loop's program
    state, which the probe reuses as the unknown.
    """

    coupling: float
    program_intensity: float
    visibility: float
    detector: DetectorModel

    def dark_port_mean_photons(self, phi: float) -> float:
        base = self.coupling * self.program_intensity
        coherent = base * (2.0 - 2.0 * math.cos(phi))
        return self.visibility * coherent + (1.0 - self.visibility) * 2.0 * base


def evolve(phases: np.ndarray, drift: DriftModel, rng: np.random.Generator) -> np.ndarray:
    """One random-walk step of every loop's phase error; a step that
    overflows a phase raises ``ValueError`` instead of running on inf."""
    phases = np.asarray(phases, dtype=float)
    if drift.sigma == 0.0:
        return phases.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        stepped = phases + rng.normal(0.0, drift.sigma, size=phases.shape)
    if not np.isfinite(stepped).all():
        raise ValueError(f"drift sigma {drift.sigma} took a phase past the float range")
    return stepped


def _estimate_mean_photons(clicks: int, trials: int, det: DetectorModel) -> float:
    """Invert the click law on an observed rate, clamped away from 1."""
    p_hat = min(clicks / trials, 1.0 - 0.5 / trials)
    n_hat = (-math.log1p(-p_hat) - det.dark_mean) / det.eta
    return max(n_hat, 0.0)


def stabilize(
    phases: np.ndarray,
    cfg: StabilizerConfig,
    probes: list[ProbeModel] | tuple[ProbeModel, ...],
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Dither-and-lock correction of every loop's phase error.

    Returns the corrected phases and the number of probe pulses spent.
    The dark-port rate goes as 2 - 2 cos(phi), so the rate difference at
    phi +/- dither is proportional to sin(phi); reading it off at the two
    dither points gives a signed estimate of the residual phase, which is
    pulled toward zero with the configured gain.
    """
    phases = np.asarray(phases, dtype=float).copy()
    m = cfg.probe_trials
    used = 0
    for loop, pm in enumerate(probes):
        signal = 4.0 * pm.visibility * pm.coupling * pm.program_intensity * math.sin(cfg.dither)
        if signal <= 0.0 or pm.detector.eta == 0.0:
            continue  # no error signal from a dark/vacuum program state or a blind detector
        p_hi = click_probability(pm.dark_port_mean_photons(phases[loop] + cfg.dither), pm.detector)
        p_lo = click_probability(pm.dark_port_mean_photons(phases[loop] - cfg.dither), pm.detector)
        k_hi = int(rng.binomial(m, p_hi))
        k_lo = int(rng.binomial(m, p_lo))
        used += 2 * m
        n_hi = _estimate_mean_photons(k_hi, m, pm.detector)
        n_lo = _estimate_mean_photons(k_lo, m, pm.detector)
        sin_phi = (n_hi - n_lo) / signal
        estimate = math.asin(min(1.0, max(-1.0, sin_phi)))
        phases[loop] -= cfg.gain * estimate
    return phases, used


def fringe_visibility_equivalent(phi: float) -> float:
    """Fringe contrast an otherwise ideal loop shows with a residual
    phase error ``phi``: (1 - s) / (1 + s) with s = sin^2(phi / 2)."""
    s = math.sin(0.5 * phi) ** 2
    return (1.0 - s) / (1.0 + s)


def simulate_drift_paths(
    sigma: float,
    blocks: int,
    paths: int,
    seed: int,
    stabilizer: StabilizerConfig | None = None,
    probe: ProbeModel | None = None,
) -> np.ndarray:
    """Phase-error trajectories of one loop, with or without the lock.

    Returns an array of shape (paths, blocks) holding the phase after
    each block's drift step and, if a stabilizer is given, its correction.
    Each path gets an independent, reproducible stream from ``seed``.
    """
    if stabilizer is not None and probe is None:
        raise ValueError("stabilized paths need a ProbeModel")
    drift = DriftModel(sigma)
    out = np.empty((paths, blocks), dtype=float)
    for p in range(paths):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, p))))
        phi = np.zeros(1)
        for b in range(blocks):
            phi = evolve(phi, drift, rng)
            if stabilizer is not None:
                phi, _ = stabilize(phi, stabilizer, [probe], rng)
            out[p, b] = phi[0]
    return out
