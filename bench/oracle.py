"""Closed-form outcome law of the discriminator, independent of the engine.

Composing the splitters of either plan gives every detector port j the
same coupling kappa_j for the unknown and for program j, with the loop's
phase error phi_j on the unknown's arm.  With fringe visibility V_j the
port mean photon number is

    mean[k, j] = kappa_j * (V_j |a_j - e^{i phi_j} a_k|^2
                            + (1 - V_j) (|a_j|^2 + |a_k|^2))

when state k is sent, and a threshold detector clicks with probability
p = 1 - exp(-(dark + eta * mean)).  Clicks are independent given the
truth, so the only surviving hypothesis is s with probability
(1 - p_s) * prod_{j != s} p_j, no detector fires with prod (1 - p_j), and
every other pattern is ambiguous.

Nothing here calls ``click_matrix`` or the splitter algebra; the
benchmark's own tests pin that the two agree.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# Bound on |z| for every count compared against the law.
Z_BOUND = 6.0
# A cell whose binomial variance is below this many counts is judged by the
# exact Poisson tail of its smaller side, because the normal approximation
# understates the tails of small counts (a cell expecting 1.6 counts sees
# 9 with probability 5e-5, which the normal z of 5.9 puts at 4e-9).
POISSON_BELOW = 200.0


def couplings(plan, n: int) -> np.ndarray:
    """kappa_j of every port: t0/(1+t0) and (1-t0)/(2-t0) for the two-state
    plan, 1/(n+1) for the n-state plan."""
    if hasattr(plan, "t0"):
        t0 = plan.t0
        return np.array([t0 / (1.0 + t0), (1.0 - t0) / (2.0 - t0)])
    return np.full(n, 1.0 / (n + 1))


def click_law(cfg, phases) -> np.ndarray:
    """P[k, j]: detector j clicks when program k is sent."""
    a = np.asarray(cfg.programs, dtype=complex)
    n = len(a)
    kappa = couplings(cfg.plan, n)
    vis = np.array([m.visibility for m in cfg.interference])
    eta = np.array([d.eta for d in cfg.detectors])
    dark = np.array([d.dark_mean for d in cfg.detectors])
    shifted = np.exp(1j * np.asarray(phases, dtype=float))[None, :] * a[:, None]
    coherent = np.abs(a[None, :] - shifted) ** 2
    incoherent = np.abs(a[None, :]) ** 2 + np.abs(a[:, None]) ** 2
    mean = kappa[None, :] * (vis * coherent + (1.0 - vis) * incoherent)
    return -np.expm1(-(dark + eta * mean))


def outcome_law(cfg, phases) -> tuple[np.ndarray, np.ndarray]:
    """(S, none): S[k, s] = P(only hypothesis s survives | k sent) and
    none[k] = P(no click | k sent)."""
    p = click_law(cfg, phases)
    n = p.shape[0]
    survivor = np.empty((n, n))
    for s in range(n):
        others = np.prod(np.delete(p, s, axis=1), axis=1)
        survivor[:, s] = (1.0 - p[:, s]) * others
    return survivor, np.prod(1.0 - p, axis=1)


def expected_counts(cfg, phase_history) -> dict[str, np.ndarray]:
    """Expected pooled counts and their binomial variances over the blocks
    of one experiment, one block per row of ``phase_history``."""
    priors = np.asarray(cfg.priors, dtype=float)
    n_blocks = len(phase_history)
    trials = cfg.trials_per_block
    n = len(priors)
    acc = {key: np.zeros(n) for key in ("plus", "minus", "conclusive")}
    acc.update({key: np.zeros(1) for key in ("no_click", "ambiguous")})
    var = {key: np.zeros_like(val) for key, val in acc.items()}
    for b in range(n_blocks):
        survivor, none = outcome_law(cfg, phase_history[b])
        plus = priors * np.diag(survivor)
        conclusive = priors * survivor.sum(axis=1)
        probs = {
            "plus": plus,
            "minus": conclusive - plus,
            "conclusive": conclusive,
            "no_click": np.array([priors @ none]),
        }
        probs["ambiguous"] = 1.0 - conclusive.sum() - probs["no_click"]
        for key, pr in probs.items():
            pr = np.clip(pr, 0.0, 1.0)
            acc[key] += trials * pr
            var[key] += trials * pr * (1.0 - pr)
    return {"mean": acc, "var": var}


def observed_counts(counts) -> dict[str, np.ndarray]:
    plus = np.array(counts.c_plus, dtype=float)
    minus = np.array(counts.c_minus, dtype=float)
    return {
        "plus": plus,
        "minus": minus,
        "conclusive": plus + minus,
        "no_click": np.array([float(counts.no_clicks)]),
        "ambiguous": np.array([float(counts.double_clicks)]),
    }


def _poisson_z(x: int, lam: float) -> float:
    """Normal-equivalent z of observing ``x`` from Poisson(``lam``): the
    one-sided tail beyond ``x`` mapped through the inverse normal CDF."""
    if lam <= 0.0:
        return 0.0 if x == 0 else math.inf
    term = math.exp(x * math.log(lam) - lam - math.lgamma(x + 1))
    tail, k = term, x
    if x > lam:  # P(X >= x), summed upward
        while term > tail * 1e-17:
            k += 1
            term *= lam / k
            tail += term
        return -NormalDist().inv_cdf(max(min(tail, 0.5), 1e-300))
    while k > 0 and term > tail * 1e-17:  # P(X <= x), summed downward
        term *= k / lam
        k -= 1
        tail += term
    return NormalDist().inv_cdf(max(min(tail, 0.5), 1e-300))


def cell_z(observed: float, mean: float, var: float, total: int) -> float:
    """z of one outcome count out of ``total`` trials: binomial standard
    error when the variance is large, the exact Poisson tail of the smaller
    side (the cell or its complement) otherwise."""
    if var >= POISSON_BELOW:
        return (observed - mean) / math.sqrt(var)
    if mean <= total - mean:
        return _poisson_z(round(observed), mean)
    return -_poisson_z(round(total - observed), total - mean)


def worst_z(cfg, counts, phase_history) -> float:
    """Largest |z| over every outcome cell of one experiment."""
    exp = expected_counts(cfg, phase_history)
    obs = observed_counts(counts)
    total = cfg.total_trials
    return max(
        abs(cell_z(o, m, v, total))
        for key in obs
        for o, m, v in zip(obs[key], exp["mean"][key], exp["var"][key])
    )


def analytic_success(intensity_diff: float, kappa: float, eta: float) -> float:
    """Ideal success 1 - exp(-eta kappa |a1 - a2|^2)."""
    return -math.expm1(-eta * kappa * intensity_diff)
