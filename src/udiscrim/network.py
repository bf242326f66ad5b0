"""The discriminator network: splitting plans, detector-port amplitudes
and the click-pattern classifier.

Layout for two program states: the unknown amplitude is divided on an
input splitter; its transmitted share meets program state 1 on a second
splitter, its reflected share meets program state 2 on a third.  Fixed
phase trims inside the network make every detector port carry a pure
difference

    d_j = const * (alpha_j - alpha_?)

so the port is exactly dark whenever the unknown equals program j.  The
same difference form holds in the n-state extension, where the unknown is
split equally into n arms and every arm meets its program state on a
splitter of transmittance n/(n+1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .optics import (
    BeamSplitter,
    ComplexAmplitude,
    apply_phase,
    as_integer,
    as_real,
    bs_transform,
)

# Exact quarter-turn trim applied to the unknown's arm in front of the
# program splitters; multiplication by -1j is exact in floating point,
# unlike apply_phase(-pi/2).
_TRIM = -1j


@dataclass(frozen=True)
class SplitterPlan:
    """Transmittances of the three splitters for two program states.

    Only the input transmittance ``t0`` is free; ``t1`` and ``t2`` are
    always derived from it so the difference form at both detector ports
    holds for any choice of ``t0``.  The plan builds its three splitters
    once and keeps them.
    """

    t0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t0", as_real("t0", self.t0, 0, 1))
        if self.t0 in (0.0, 1.0):
            # Past this method and the dataclass-generated __init__.
            warnings.warn(
                f"t0={self.t0} leaves one detector port without signal",
                stacklevel=3,
            )

    @property
    def t1(self) -> float:
        return 1.0 / (1.0 + self.t0)

    @property
    def t2(self) -> float:
        return (1.0 - self.t0) / (2.0 - self.t0)

    @cached_property
    def splitters(self) -> tuple[BeamSplitter, BeamSplitter, BeamSplitter]:
        """The input splitter and the splitters of loops 1 and 2."""
        return BeamSplitter(self.t0), BeamSplitter(self.t1), BeamSplitter(self.t2)

    @property
    def couplings(self) -> tuple[float, float]:
        """Intensity share each interfering field keeps at ports 1 and 2,
        t0/(1+t0) and (1-t0)/(2-t0).

        Computed as products of splitter transmittances: the closed forms
        differ from these in the last bit for most t0 (port 2 at t0 = 1/2
        among them), and the lock's phase corrections follow that bit.
        """
        return (self.t0 * self.t1, (1.0 - self.t0) * (1.0 - self.t2))


@dataclass(frozen=True)
class NStatePlan:
    """Splitting plan for n >= 2 program states.

    The input splitter divides the unknown equally over n arms and each
    arm meets its program state on a splitter of transmittance n/(n+1).
    The plan builds its n - 1 taps and its stage splitter once and keeps
    them.
    """

    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_integer("n", self.n, 2))

    @property
    def stage_transmittance(self) -> float:
        return self.n / (self.n + 1)

    @cached_property
    def taps(self) -> tuple[BeamSplitter, ...]:
        """The tap chain of the equal split: tap k keeps (n-k-1)/(n-k)."""
        n = self.n
        return tuple(BeamSplitter((n - k - 1) / (n - k)) for k in range(n - 1))

    @cached_property
    def stage(self) -> BeamSplitter:
        """The splitter on which every arm meets its program state."""
        return BeamSplitter(self.stage_transmittance)

    @property
    def couplings(self) -> tuple[float, ...]:
        """Intensity share each interfering field keeps at every port, 1/(n+1)."""
        return (1.0 / (self.n + 1),) * self.n


Plan = SplitterPlan | NStatePlan


def _phases(n: int, phase_errors) -> tuple[float, ...]:
    """One finite phase error per loop, ``None`` meaning none; ``as_real`` names a bad one."""
    if phase_errors is None:
        return (0.0,) * n
    if len(phase_errors) != n:
        raise ValueError(f"expected {n} phase errors, got {len(phase_errors)}")
    try:
        if all(map(math.isfinite, phase_errors)):
            return tuple(phase_errors)
    except (TypeError, OverflowError):  # not a real, or an int past the float range
        pass
    return tuple(as_real(f"phase_errors[{j}]", p, -math.inf) for j, p in enumerate(phase_errors))


def port_contributions(
    alpha_unknown: ComplexAmplitude,
    alpha_1: ComplexAmplitude,
    alpha_2: ComplexAmplitude,
    plan: SplitterPlan,
    phase_errors: tuple[float, float] | None = None,
) -> list[tuple[ComplexAmplitude, ComplexAmplitude]]:
    """Propagate the three inputs through the two-state network.

    Returns per detector port a pair (unknown part, program part); the
    port amplitude is their sum, and the pair is what an incoherent-sum
    visibility model needs.  ``phase_errors`` are extra phases picked up
    on the unknown's arm of each loop (drift); ``None`` means none.
    """
    phi_1, phi_2 = _phases(2, phase_errors)
    bs0, bs1, bs2 = plan.splitters
    u_to_1, u_to_2 = bs_transform(alpha_unknown, 0j, bs0)
    u_to_1, u_to_2 = apply_phase(u_to_1 * _TRIM, phi_1), apply_phase(u_to_2, phi_2)

    # Loop 1: unknown transmitted into D1, program 1 reflected into D1.
    d1_u, _ = bs_transform(u_to_1, 0j, bs1)
    d1_p, _ = bs_transform(0j, alpha_1, bs1)
    # Loop 2: program 2 transmitted into D2, unknown reflected into D2.
    d2_p, _ = bs_transform(alpha_2, 0j, bs2)
    d2_u, _ = bs_transform(0j, u_to_2, bs2)
    return [(d1_u, d1_p), (d2_u, d2_p)]


def detector_amplitudes(
    alpha_unknown: ComplexAmplitude,
    alpha_1: ComplexAmplitude,
    alpha_2: ComplexAmplitude,
    plan: SplitterPlan,
    phase_errors: tuple[float, float] | None = None,
) -> tuple[ComplexAmplitude, ...]:
    """Amplitudes at the two detector ports.

    Up to a global phase per port these equal

        d1 = sqrt(t0 / (1 + t0)) * (alpha_1 - alpha_?)
        d2 = sqrt((1 - t0) / (2 - t0)) * (alpha_2 - alpha_?)

    so port j is dark exactly when the unknown equals program j.
    """
    parts = port_contributions(alpha_unknown, alpha_1, alpha_2, plan, phase_errors)
    return tuple(u + p for u, p in parts)


def _equal_split_arms(
    alpha: ComplexAmplitude, taps: tuple[BeamSplitter, ...]
) -> list[ComplexAmplitude]:
    """Split ``alpha`` into n arms of equal intensity via a tap chain.

    A cascade of n-1 two-port splitters peels off 1/n of the original
    intensity at each stage; exact phase trims afterwards give every arm
    the same coefficient -i/sqrt(n).
    """
    arms: list[ComplexAmplitude] = []
    carry = alpha + 0j
    for tap in taps:
        carry, tapped = bs_transform(carry, 0j, tap)
        arms.append(tapped * -1.0)
    arms.append(carry * _TRIM)
    return arms


def nstate_port_contributions(
    alpha_unknown: ComplexAmplitude,
    programs: list[ComplexAmplitude] | tuple[ComplexAmplitude, ...],
    plan: NStatePlan,
    phase_errors: tuple[float, ...] | None = None,
) -> list[tuple[ComplexAmplitude, ComplexAmplitude]]:
    """Per-port (unknown part, program part) pairs for the n-state network."""
    n = plan.n
    if len(programs) != n:
        raise ValueError(f"expected {n} program states, got {len(programs)}")
    phases = _phases(n, phase_errors)
    stage = plan.stage
    return [
        (bs_transform(apply_phase(arm, phi), 0j, stage)[0], bs_transform(0j, program, stage)[0])
        for arm, phi, program in zip(_equal_split_arms(alpha_unknown, plan.taps), phases, programs)
    ]


def nstate_amplitudes(
    alpha_unknown: ComplexAmplitude,
    programs: list[ComplexAmplitude] | tuple[ComplexAmplitude, ...],
    plan: NStatePlan,
    phase_errors: tuple[float, ...] | None = None,
) -> tuple[ComplexAmplitude, ...]:
    """Detector-port amplitudes of the n-state network.

    |d_j|^2 = |alpha_j - alpha_?|^2 / (n + 1); port j is dark exactly when
    the unknown equals program j.  For n = 2 the intensities coincide with
    the two-state plan at t0 = 1/2.
    """
    parts = nstate_port_contributions(alpha_unknown, programs, plan, phase_errors)
    return tuple(u + p for u, p in parts)


class OutcomeKind(Enum):
    CORRECT = "correct"
    ERRONEOUS = "erroneous"
    NO_CLICK = "no_click"
    MULTI_CLICK = "multi_click"

    @property
    def conclusive(self) -> bool:
        return self in (OutcomeKind.CORRECT, OutcomeKind.ERRONEOUS)


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one pulse: what was reported against what was sent.

    ``reported`` is None unless the trial was conclusive.
    """

    kind: OutcomeKind
    true_index: int
    reported: int | None = None


def classify(clicks: list[bool] | tuple[bool, ...]) -> tuple[int, ...]:
    """Surviving hypothesis indices after exclusion by clicks.

    A click at detector j rules out hypothesis j.  The trial is conclusive
    exactly when one hypothesis survives; for two program states this is
    the single-click rule (a click at D1 identifies state 2 and vice
    versa, no click or a double click is inconclusive).
    """
    return tuple(j for j, c in enumerate(clicks) if not c)


def outcome_from_clicks(
    clicks: list[bool] | tuple[bool, ...],
    true_index: int,
) -> TrialOutcome:
    """Label a click pattern given the hypothesis that was actually sent."""
    true_index = as_integer("true_index", true_index, 0, len(clicks) - 1)
    survivors = classify(clicks)
    if len(survivors) == len(clicks):
        return TrialOutcome(OutcomeKind.NO_CLICK, true_index)
    if len(survivors) == 1:
        reported = survivors[0]
        kind = OutcomeKind.CORRECT if reported == true_index else OutcomeKind.ERRONEOUS
        return TrialOutcome(kind, true_index, reported)
    return TrialOutcome(OutcomeKind.MULTI_CLICK, true_index)
