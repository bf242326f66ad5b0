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
splitter of transmittance n/(n+1).  Every plan is a ``Plan``: it stores its
splitters, its ``stages`` (each loop's splitter and the input the unknown
enters) and its ``couplings`` once, and supplies ``arms(alpha)``, the
unknown's trimmed share in front of each loop; one ``port_contributions``
serves every plan.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

from .optics import (
    BeamSplitter,
    ComplexAmplitude,
    apply_phase,
    as_integer,
    as_real,
    as_reals,
    bs_transform,
    intensity,
)

# Exact quarter-turn trim applied to the unknown's arm in front of the
# program splitters; multiplication by -1j is exact in floating point,
# unlike apply_phase(-pi/2).
_TRIM = -1j


@dataclass(frozen=True)
class Plan:
    """What every splitting plan stores, set once by the plan itself:
    its ``splitters``; ``stages``, each loop's splitter and whether the
    unknown enters its second input; and ``couplings``, the intensity share
    each interfering field keeps at each port.  A plan compares, hashes and
    prints by its one parameter only, and supplies ``arms(alpha)``."""

    splitters: tuple[BeamSplitter, ...] = field(init=False, repr=False, compare=False)
    stages: tuple[tuple[BeamSplitter, bool], ...] = field(init=False, repr=False, compare=False)
    couplings: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def _store(self, splitters, stages, couplings) -> None:
        object.__setattr__(self, "splitters", splitters)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "couplings", couplings)


@dataclass(frozen=True)
class SplitterPlan(Plan):
    """Transmittances of the three splitters for two program states.

    Only the input transmittance ``t0`` is free; ``t1`` and ``t2`` are
    always derived from it so the difference form at both detector ports
    holds for any choice of ``t0``.  ``splitters`` are the input splitter
    and the splitters of loops 1 and 2; loop 2 takes the unknown on its
    second input.  ``couplings`` are t0/(1+t0) and (1-t0)/(2-t0).
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
        splitters = BeamSplitter(self.t0), BeamSplitter(self.t1), BeamSplitter(self.t2)
        # The couplings are products of splitter transmittances: the closed
        # forms differ from these in the last bit for most t0 (port 2 at
        # t0 = 1/2 among them), and the lock's phase corrections follow that bit.
        self._store(splitters, ((splitters[1], False), (splitters[2], True)),
                    (self.t0 * self.t1, (1.0 - self.t0) * (1.0 - self.t2)))

    @property
    def t1(self) -> float:
        return 1.0 / (1.0 + self.t0)

    @property
    def t2(self) -> float:
        return (1.0 - self.t0) / (2.0 - self.t0)

    def arms(self, alpha: ComplexAmplitude) -> tuple[ComplexAmplitude, ComplexAmplitude]:
        """The input splitter's two outputs, loop 1's arm trimmed by -i."""
        u_to_1, u_to_2 = bs_transform(alpha, 0j, self.splitters[0])
        return u_to_1 * _TRIM, u_to_2


@dataclass(frozen=True)
class NStatePlan(Plan):
    """Splitting plan for n >= 2 program states.

    The input splitter divides the unknown equally over n arms and each
    arm meets its program state on a splitter of transmittance n/(n+1).
    ``splitters`` are the n - 1 taps of the equal split, tap k keeping
    (n-k-1)/(n-k), then the one stage splitter that every loop shares with
    the unknown on its first input.  Every coupling is 1/(n+1).
    """

    n: int

    def __post_init__(self) -> None:
        n = as_integer("n", self.n, 2)
        object.__setattr__(self, "n", n)
        stage = BeamSplitter(n / (n + 1))
        taps = tuple(BeamSplitter((n - k - 1) / (n - k)) for k in range(n - 1))
        self._store(taps + (stage,), ((stage, False),) * n, (1.0 / (n + 1),) * n)

    def arms(self, alpha: ComplexAmplitude) -> list[ComplexAmplitude]:
        """Split ``alpha`` into n arms of equal intensity via the tap chain.

        Each tap peels off 1/n of the original intensity; exact phase
        trims afterwards give every arm the same coefficient -i/sqrt(n).
        """
        arms: list[ComplexAmplitude] = []
        carry = alpha + 0j
        for tap in self.splitters[:-1]:
            carry, tapped = bs_transform(carry, 0j, tap)
            arms.append(tapped * -1.0)
        arms.append(carry * _TRIM)
        return arms


def port_contributions(
    alpha_unknown: ComplexAmplitude,
    programs: list[ComplexAmplitude] | tuple[ComplexAmplitude, ...],
    plan: Plan,
    phase_errors: tuple[float, ...] | None = None,
) -> list[tuple[ComplexAmplitude, ComplexAmplitude]]:
    """Propagate the unknown and the program states through the network.

    Returns per detector port a pair (unknown part, program part); the
    port amplitude is their sum, and the pair is what an incoherent-sum
    visibility model needs.  ``programs`` holds one state per port, as
    many as the plan serves; ``phase_errors`` are extra phases picked up
    on the unknown's arm of each loop (drift), and ``None`` means none.
    """
    stages = plan.stages
    n = len(stages)
    if len(programs) != n:
        raise ValueError(f"expected {n} program states, got {len(programs)}")
    if phase_errors is None:
        phase_errors = (0.0,) * n
    phases = as_reals("phase_errors", phase_errors, n, -math.inf)
    rotated = map(apply_phase, plan.arms(alpha_unknown), phases)
    return [
        (bs_transform(0j, arm, bs)[0], bs_transform(program, 0j, bs)[0]) if unknown_second
        else (bs_transform(arm, 0j, bs)[0], bs_transform(0j, program, bs)[0])
        for arm, program, (bs, unknown_second) in zip(rotated, programs, stages)
    ]


# An alias, kept because bench/tracer.py wraps montecarlo's import of this name.
nstate_port_contributions = port_contributions


def detector_amplitudes(
    alpha_unknown: ComplexAmplitude,
    programs: list[ComplexAmplitude] | tuple[ComplexAmplitude, ...],
    plan: Plan,
    phase_errors: tuple[float, ...] | None = None,
) -> tuple[ComplexAmplitude, ...]:
    """Amplitudes at the detector ports.

    Up to a global phase per port these equal, for two program states,

        d1 = sqrt(t0 / (1 + t0)) * (alpha_1 - alpha_?)
        d2 = sqrt((1 - t0) / (2 - t0)) * (alpha_2 - alpha_?)

    and for n states |d_j|^2 = |alpha_j - alpha_?|^2 / (n + 1), so port j
    is dark exactly when the unknown equals program j.  For n = 2 the
    intensities coincide with the two-state plan at t0 = 1/2.
    """
    as_real("alpha_unknown intensity", intensity(alpha_unknown), 0)
    for j, alpha in enumerate(programs):
        as_real(f"programs[{j}] intensity", intensity(alpha), 0)
    parts = port_contributions(alpha_unknown, programs, plan, phase_errors)
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
    if len(clicks) == 0:
        raise ValueError("clicks must hold one entry per detector, got an empty pattern")
    true_index = as_integer("true_index", true_index, 0, len(clicks) - 1)
    survivors = classify(clicks)
    if len(survivors) == len(clicks):
        return TrialOutcome(OutcomeKind.NO_CLICK, true_index)
    if len(survivors) == 1:
        reported = survivors[0]
        kind = OutcomeKind.CORRECT if reported == true_index else OutcomeKind.ERRONEOUS
        return TrialOutcome(kind, true_index, reported)
    return TrialOutcome(OutcomeKind.MULTI_CLICK, true_index)
