"""Complex-amplitude algebra for coherent states in single optical modes.

A coherent state is represented by one complex number; its squared modulus
is the mean photon number per pulse.  The only elements needed here are
phase shifters and lossless two-port beam splitters.  ``as_integer`` is the
package's one check for counts, seeds and state numbers, and ``as_real`` its
one check for finite, ranged real inputs, which it keeps as Python floats.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

ComplexAmplitude = complex


def as_integer(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as a Python int, if it is a Python or numpy integer in
    [lo, hi]; otherwise a ``ValueError`` naming ``name``.  Python ints,
    since ``Philox.advance`` rejects numpy integers."""
    if isinstance(value, numbers.Integral) and lo <= value and (hi is None or value <= hi):
        return int(value)
    cap = "" if hi is None else f" and at most {hi}"
    raise ValueError(f"{name} must be an integer >= {lo}{cap}, got {value}")


def as_real(name: str, value, lo: float, hi: float = math.inf, *, open_lo: bool = False) -> float:
    """``value`` as a Python float, if it is a finite real in [lo, hi], or in
    (lo, hi] with ``open_lo``; otherwise a ``ValueError`` naming ``name``.
    Python floats, since numpy scalars are slow in the per-port loops.  A
    rejected numpy scalar is shown by its Python value."""
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if math.isfinite(x) and (lo < x if open_lo else lo <= x) and x <= hi:
        return x
    where = "" if lo == -hi == -math.inf else f" in {'(' if open_lo else '['}{lo:g}, {hi:g}]"
    shown = value.item() if isinstance(value, numbers.Number) and hasattr(value, "item") else value
    raise ValueError(f"{name} must be a finite number{where}, got {shown!r}")


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless two-port splitter with intensity transmittance in [0, 1].

    Reflectance is always 1 - transmittance, so every instance is unitary.
    The amplitude coefficients sqrt(T) and sqrt(1 - T) are computed once.
    """

    transmittance: float
    sqrt_t: float = field(init=False, repr=False, compare=False)
    sqrt_r: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = as_real("transmittance", self.transmittance, 0, 1)
        object.__setattr__(self, "transmittance", t)
        object.__setattr__(self, "sqrt_t", math.sqrt(t))
        object.__setattr__(self, "sqrt_r", math.sqrt(1.0 - t))


def intensity(a: ComplexAmplitude) -> float:
    """Mean photon number per pulse carried by amplitude ``a``."""
    return a.real * a.real + a.imag * a.imag


def bs_transform(
    a_in: ComplexAmplitude,
    b_in: ComplexAmplitude,
    bs: BeamSplitter,
) -> tuple[ComplexAmplitude, ComplexAmplitude]:
    """Mix two input modes on a beam splitter.

    Uses the symmetric convention with a fixed ``i`` phase on reflection:

        a_out = sqrt(T) a_in + i sqrt(R) b_in
        b_out = i sqrt(R) a_in + sqrt(T) b_in

    which conserves total intensity for every transmittance.
    """
    st = bs.sqrt_t
    sr = bs.sqrt_r
    a_out = st * a_in + 1j * (sr * b_in)
    b_out = 1j * (sr * a_in) + st * b_in
    return a_out, b_out


def apply_phase(a: ComplexAmplitude, phi: float) -> ComplexAmplitude:
    """Rotate ``a`` by ``phi`` radians; intensity is unchanged."""
    return a * cmath.exp(1j * phi)


def from_intensity_phase(n: float, phi: float) -> ComplexAmplitude:
    """Amplitude with mean photon number ``n`` and phase ``phi`` (radians)."""
    n, phi = as_real("mean photon number", n, 0), as_real("phase", phi, -math.inf)
    return cmath.rect(math.sqrt(n), phi)
