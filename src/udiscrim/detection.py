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
import sys
from dataclasses import dataclass

from .network import NStatePlan
from .optics import (ComplexAmplitude, as_amplitude, as_instance, as_integer, as_real, as_reals,
                     intensity)

# The per-port guards screen with one chained comparison, which also fails
# for NaN and inf; as_real runs only to name a value that fails it.
_FLOAT_MAX = sys.float_info.max


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
        object.__setattr__(self, "eta", as_real("eta", self.eta, 0, 1))
        object.__setattr__(self, "dark_mean", as_real("dark_mean", self.dark_mean, 0))


@dataclass(frozen=True)
class InterferenceModel:
    """Fringe visibility of one interferometer loop; 1 means ideal."""

    visibility: float = 0.98

    def __post_init__(self) -> None:
        object.__setattr__(self, "visibility", as_real("visibility", self.visibility, 0, 1))


def port_mean_photons(
    coherent_sum: ComplexAmplitude,
    incoherent_sum_of_intensities: float,
    vis: InterferenceModel,
) -> float:
    """Mean photon number at a port with partially coherent interference.

    n = V |sum of amplitudes|^2 + (1 - V) (sum of arm intensities);
    for equal-intensity arms this gives fringe contrast exactly V.
    """
    coherent = intensity(coherent_sum)
    if not coherent <= _FLOAT_MAX:  # NaN or inf; an intensity is never negative
        as_amplitude("coherent_sum", coherent_sum)
    if not 0.0 <= incoherent_sum_of_intensities <= _FLOAT_MAX:
        as_real("incoherent_sum_of_intensities", incoherent_sum_of_intensities, 0)
    v = vis.visibility
    return v * coherent + (1.0 - v) * incoherent_sum_of_intensities


def click_probability(n: float, det: DetectorModel) -> float:
    """Probability that a pulse of mean photon number ``n`` causes a click.

    Combines the signal and the independent dark channel:
    p = 1 - exp(-(dark_mean + eta * n)).
    """
    if not 0.0 <= n <= _FLOAT_MAX:
        as_real("n", n, 0)
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
    t0, eta2 = as_real("t0", t0, 0, 1), as_real("eta2", eta2, 0, 1)
    alpha_1, alpha_2 = as_amplitude("alpha_1", alpha_1), as_amplitude("alpha_2", alpha_2)
    d2 = as_real("|alpha_1 - alpha_2|^2", intensity(alpha_1 - alpha_2), 0)
    return -math.expm1(-eta2 * (1.0 - t0) / (2.0 - t0) * d2)


def analytic_p2(
    alpha_1: ComplexAmplitude,
    alpha_2: ComplexAmplitude,
    t0: float,
    eta1: float,
) -> float:
    """Probability of correctly identifying program state 2 (mirror of
    :func:`analytic_p1` with splitting factor t0/(1+t0) and detector 1)."""
    t0, eta1 = as_real("t0", t0, 0, 1), as_real("eta1", eta1, 0, 1)
    alpha_1, alpha_2 = as_amplitude("alpha_1", alpha_1), as_amplitude("alpha_2", alpha_2)
    d2 = as_real("|alpha_1 - alpha_2|^2", intensity(alpha_1 - alpha_2), 0)
    return -math.expm1(-eta1 * t0 / (1.0 + t0) * d2)


def nstate_success_from_distances(
    squared_distances: list[float] | tuple[float, ...],
    n: int,
    eta: float,
) -> float:
    """Success probability given the squared distances |alpha_j - alpha_k|^2
    from the true state k to every other program state (dark counts off)."""
    n = as_integer("n", n, 2)
    squared_distances = as_reals("squared_distances", squared_distances, n - 1, 0)
    eta = as_real("eta", eta, 0, 1)
    return math.prod(-math.expm1(-eta * d2 / (n + 1)) for d2 in squared_distances)


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
    as_instance("plan", plan, NStatePlan)
    if as_instance("det", det, DetectorModel).dark_mean != 0.0:
        raise ValueError("closed form assumes dark_mean = 0; use the Monte Carlo engine instead")
    if len(programs) != plan.n:
        raise ValueError(f"expected {plan.n} program states, got {len(programs)}")
    k = as_integer("k", k, 0, plan.n - 1)
    for j, alpha in enumerate(programs):
        as_amplitude(f"programs[{j}]", alpha)
    # A bad distance is named by its programs, not as the caller's unseen squared_distances.
    d2 = [as_real(f"|programs[{j}] - programs[{k}]|^2", intensity(programs[j] - programs[k]), 0)
          for j in range(plan.n) if j != k]
    return nstate_success_from_distances(d2, plan.n, det.eta)
