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
from .optics import as_integer, as_real, as_reals

# The same bound as a block's trials; numpy's binomial draw takes a C long.
MAX_PROBE_TRIALS = 10**10


@dataclass(frozen=True)
class DriftModel:
    """Random-walk scale of the phase error, in radians per sqrt(block)."""

    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", as_real("sigma", self.sigma, 0))


@dataclass(frozen=True)
class StabilizerConfig:
    """Dither-and-lock settings; a run without the lock passes ``None``."""

    probe_trials: int = 2000
    dither: float = 0.2
    gain: float = 0.7

    def __post_init__(self) -> None:
        m = as_integer("probe_trials", self.probe_trials, 1, MAX_PROBE_TRIALS)
        object.__setattr__(self, "probe_trials", m)
        for name, hi in (("dither", math.inf), ("gain", 1)):
            object.__setattr__(self, name, as_real(name, getattr(self, name), 0, hi, open_lo=True))


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

    def __post_init__(self) -> None:
        for name, hi in (("coupling", 1), ("program_intensity", math.inf), ("visibility", 1)):
            object.__setattr__(self, name, as_real(name, getattr(self, name), 0, hi))

    def dark_port_mean_photons(self, phi: float) -> float:
        base = self.coupling * self.program_intensity
        coherent = base * (2.0 - 2.0 * math.cos(phi))
        return self.visibility * coherent + (1.0 - self.visibility) * 2.0 * base


def evolve(phases: np.ndarray, drift: DriftModel, rng: np.random.Generator) -> np.ndarray:
    """One random-walk step of every loop's phase error.  A non-finite input
    phase is a ``ValueError`` that names it, and a step that takes a phase
    past the float range is one too, instead of running on inf."""
    phases = as_reals("phases", phases, None, -math.inf)
    if drift.sigma != 0.0:
        steps = rng.normal(0.0, drift.sigma, size=len(phases)).tolist()
        phases = [phi + step for phi, step in zip(phases, steps)]
        if not all(map(math.isfinite, phases)):
            raise ValueError(f"drift sigma {drift.sigma} took a phase past the float range")
    return np.array(phases)


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
    pulled toward zero with the configured gain.  ``phases`` holds one
    phase per probe; a non-finite one is a ``ValueError`` that names it.
    """
    phases = as_reals("phases", phases, len(probes), -math.inf)
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
    return np.array(phases), used


def fringe_visibility_equivalent(phi: float) -> float:
    """Fringe contrast an otherwise ideal loop shows with a residual
    phase error ``phi``: (1 - s) / (1 + s) with s = sin^2(phi / 2)."""
    s = math.sin(0.5 * as_real("phi", phi, -math.inf)) ** 2
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
    blocks, paths = as_integer("blocks", blocks, 1), as_integer("paths", paths, 1)
    seed = as_integer("seed", seed, 0)
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
