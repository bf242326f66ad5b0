"""Complex-amplitude algebra for coherent states in single optical modes.

A coherent state is represented by one complex number; its squared modulus
is the mean photon number per pulse.  The only elements needed here are
phase shifters and lossless two-port beam splitters.  ``as_integer`` is the
package's one check for counts, seeds and state numbers.
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
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError(f"transmittance must lie in [0, 1], got {self.transmittance}")
        object.__setattr__(self, "sqrt_t", math.sqrt(self.transmittance))
        object.__setattr__(self, "sqrt_r", math.sqrt(1.0 - self.transmittance))


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
    if not (0.0 <= n < math.inf):
        raise ValueError(f"mean photon number must be finite and >= 0, got {n}")
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    return cmath.rect(math.sqrt(n), phi)
