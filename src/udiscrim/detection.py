"""Detector and interference-imperfection models.

Click statistics follow the standard threshold-detector law for weak
coherent light: a detector of quantum efficiency eta facing a mode with
mean photon number n clicks with probability 1 - exp(-eta * n), and dark
counts add an independent Poisson click channel per coincidence window.
Imperfect interference is modelled as a linear mix of the coherent and
incoherent port intensities, which reproduces a fringe visibility of
exactly V for balanced arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .network import NStatePlan
from .optics import ComplexAmplitude, intensity


@dataclass(frozen=True)
class DetectorModel:
    """Threshold single-photon detector.

    ``dark_mean`` is the mean number of dark counts per coincidence
    window (about 4e-7 for gated avalanche photodiodes of the kind this
    simulator targets).
    """

    eta: float
    dark_mean: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError(f"quantum efficiency must lie in [0, 1], got {self.eta}")
        if not (0.0 <= self.dark_mean < math.inf):
            raise ValueError(f"dark_mean must be finite and >= 0, got {self.dark_mean}")


@dataclass(frozen=True)
class InterferenceModel:
    """Fringe visibility of one interferometer loop; 1 means ideal."""

    visibility: float = 0.98

    def __post_init__(self) -> None:
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")


def port_mean_photons(
    coherent_sum: ComplexAmplitude,
    incoherent_sum_of_intensities: float,
    vis: InterferenceModel,
) -> float:
    """Mean photon number at a port with partially coherent interference.

    n = V |sum of amplitudes|^2 + (1 - V) (sum of arm intensities);
    for equal-intensity arms this gives fringe contrast exactly V.
    """
    if incoherent_sum_of_intensities < 0.0:
        raise ValueError("arm intensities cannot sum to a negative value")
    v = vis.visibility
    return v * intensity(coherent_sum) + (1.0 - v) * incoherent_sum_of_intensities


def click_probability(n: float, det: DetectorModel) -> float:
    """Probability that a pulse of mean photon number ``n`` causes a click.

    Combines the signal and the independent dark channel:
    p = 1 - exp(-(dark_mean + eta * n)).
    """
    if n < 0.0 or math.isnan(n):
        raise ValueError(f"mean photon number must be >= 0, got {n}")
    return -math.expm1(-(det.dark_mean + det.eta * n))


def analytic_p1(
    alpha_1: ComplexAmplitude,
    alpha_2: ComplexAmplitude,
    t0: float,
    eta2: float,
) -> float:
    """Probability of correctly identifying program state 1.

    Equals 1 - exp(-eta2 * (1-t0)/(2-t0) * |alpha_1 - alpha_2|^2): when the
    unknown matches state 1, detector port 2 carries the difference field
    and a click there is the conclusive event.
    """
    d2 = intensity(alpha_1 - alpha_2)
    return -math.expm1(-eta2 * (1.0 - t0) / (2.0 - t0) * d2)


def analytic_p2(
    alpha_1: ComplexAmplitude,
    alpha_2: ComplexAmplitude,
    t0: float,
    eta1: float,
) -> float:
    """Probability of correctly identifying program state 2 (mirror of
    :func:`analytic_p1` with splitting factor t0/(1+t0) and detector 1)."""
    d2 = intensity(alpha_1 - alpha_2)
    return -math.expm1(-eta1 * t0 / (1.0 + t0) * d2)


def nstate_success_from_distances(
    squared_distances: list[float] | tuple[float, ...],
    n: int,
    eta: float,
) -> float:
    """Success probability given the squared distances |alpha_j - alpha_k|^2
    from the true state k to every other program state (dark counts off)."""
    if len(squared_distances) != n - 1:
        raise ValueError(f"expected {n - 1} squared distances, got {len(squared_distances)}")
    p = 1.0
    for d2 in squared_distances:
        p *= -math.expm1(-eta * d2 / (n + 1))
    return p


def analytic_nstate_success(
    programs: list[ComplexAmplitude] | tuple[ComplexAmplitude, ...],
    k: int,
    plan: NStatePlan,
    det: DetectorModel,
) -> float:
    """Probability of conclusively identifying program state ``k`` in the
    n-state scheme with ideal interference and no dark counts.

    Every port j != k must click, each with its own exponential law, so the
    result is the product over j != k of 1 - exp(-eta |a_j - a_k|^2/(n+1)).
    """
    if det.dark_mean != 0.0:
        raise ValueError("closed form assumes dark_mean = 0; use the Monte Carlo engine instead")
    if len(programs) != plan.n:
        raise ValueError(f"expected {plan.n} program states, got {len(programs)}")
    if not (0 <= k < plan.n):
        raise ValueError(f"true index {k} out of range for n={plan.n}")
    d2 = [intensity(programs[j] - programs[k]) for j in range(plan.n) if j != k]
    return nstate_success_from_distances(d2, plan.n, det.eta)
