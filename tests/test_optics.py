import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from udiscrim.optics import (
    BeamSplitter,
    apply_phase,
    as_real,
    as_reals,
    bs_transform,
    from_intensity_phase,
    intensity,
)


def random_amplitudes(rng, count):
    return rng.normal(size=count) + 1j * rng.normal(size=count)


class TestBeamSplitter:
    def test_identity_at_full_transmittance(self):
        a, b = bs_transform(1 + 0j, 0j, BeamSplitter(1.0))
        assert a == 1 + 0j
        assert b == 0j

    def test_balanced_split_of_one_input(self):
        a, b = bs_transform(1 + 0j, 0j, BeamSplitter(0.5))
        assert a == pytest.approx(math.sqrt(0.5) + 0j)
        assert b == pytest.approx(1j * math.sqrt(0.5))
        assert intensity(a) == pytest.approx(0.5, rel=1e-12)
        assert intensity(b) == pytest.approx(0.5, rel=1e-12)

    def test_energy_conservation_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            a, b = random_amplitudes(rng, 2)
            t = rng.uniform()
            a_out, b_out = bs_transform(complex(a), complex(b), BeamSplitter(t))
            total_in = intensity(complex(a)) + intensity(complex(b))
            total_out = intensity(a_out) + intensity(b_out)
            assert total_out == pytest.approx(total_in, rel=1e-12)

    def test_transmittance_out_of_range_rejected(self):
        for t in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                BeamSplitter(t)

    def test_mach_zehnder_composition(self):
        # Two balanced splitters: zero internal phase swaps the inputs,
        # a pi phase on one arm restores them (up to global phases).
        rng = np.random.default_rng(7)
        a, b = (complex(x) for x in random_amplitudes(rng, 2))
        x, y = bs_transform(a, b, BeamSplitter(0.5))
        swapped = bs_transform(x, y, BeamSplitter(0.5))
        assert intensity(swapped[0]) == pytest.approx(intensity(b), rel=1e-12)
        assert intensity(swapped[1]) == pytest.approx(intensity(a), rel=1e-12)
        restored = bs_transform(apply_phase(x, math.pi), y, BeamSplitter(0.5))
        assert intensity(restored[0]) == pytest.approx(intensity(a), rel=1e-12)
        assert intensity(restored[1]) == pytest.approx(intensity(b), rel=1e-12)


class TestApplyPhase:
    def test_pi_flips_sign(self):
        out = apply_phase(1 + 0j, math.pi)
        assert out.real == pytest.approx(-1.0, abs=1e-15)
        assert out.imag == pytest.approx(0.0, abs=1e-15)

    def test_zero_is_identity(self):
        assert apply_phase(1 + 0j, 0.0) == 1 + 0j

    def test_modulus_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            (a,) = random_amplitudes(rng, 1)
            phi = rng.uniform(-10, 10)
            assert intensity(apply_phase(complex(a), phi)) == pytest.approx(
                intensity(complex(a)), rel=1e-12
            )

    def test_group_action(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            (a,) = random_amplitudes(rng, 1)
            x, y = rng.uniform(-6, 6, size=2)
            once = apply_phase(apply_phase(complex(a), x), y)
            combined = apply_phase(complex(a), x + y)
            assert cmath.isclose(once, combined, rel_tol=1e-12, abs_tol=1e-12)


class TestFromIntensityPhase:
    def test_reference_intensity(self):
        a = from_intensity_phase(1.33, 0.0)
        assert a.real == pytest.approx(1.1533, abs=5e-5)
        assert a.imag == 0.0
        assert intensity(a) == pytest.approx(1.33, rel=1e-12)

    def test_vacuum(self):
        assert from_intensity_phase(0.0, 2.3) == 0j

    def test_four_photons_at_pi(self):
        a = from_intensity_phase(4.0, math.pi)
        assert a.real == pytest.approx(-2.0, abs=1e-12)
        assert a.imag == pytest.approx(0.0, abs=1e-12)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            from_intensity_phase(-1e-9, 0.0)

    @pytest.mark.parametrize(
        "n, phi, what",
        [(math.inf, 0.0, "mean photon number"), (math.nan, 0.0, "mean photon number"),
         (1.0, math.nan, "phase"), (1.0, math.inf, "phase"), (1.0, -math.inf, "phase")],
    )
    def test_non_finite_input_rejected(self, n, phi, what):
        with pytest.raises(ValueError, match=what):
            from_intensity_phase(n, phi)


# Python and numpy reals, in and out of [0, 1] and of the float range, and
# values that are no real at all.
ENTRIES = [0.25, 1, True, Fraction(1, 3), np.float32(0.5), np.float64(1.0), np.int64(0),
           -0.5, 1.5, math.nan, math.inf, -math.inf, 10**400, np.float64(math.nan),
           1j, "0.5", None, np.array([0.5]), np.array(0.5), [0.5]]


class TestAsReals:
    @pytest.mark.parametrize("entry", ENTRIES, ids=repr)
    def test_accepts_an_entry_exactly_when_as_real_does(self, entry):
        try:
            expected = as_real("x[1]", entry, 0, 1)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                as_reals("x", [0.5, entry], 2, 0, 1)
        else:
            got = as_reals("x", [0.5, entry], 2, 0, 1)
            assert got == [0.5, expected]
            assert [type(x) for x in got] == [float, float]

    def test_reads_an_array_as_python_floats(self):
        got = as_reals("x", np.array([1, 2], dtype=np.int32), 2, -math.inf)
        assert got == [1.0, 2.0]
        assert [type(x) for x in got] == [float, float]

    @pytest.mark.parametrize(
        "values, n, message",
        [
            ((0.1, 0.2), 3, "expected 3 phase errors, got 2$"),
            (0.1, 1, "phase_errors must be a sequence, got 0.1$"),
            (np.float64(0.1), 1, "phase_errors must be a sequence, got 0.1$"),
            (np.array(0.1), 1, "phase_errors must be a sequence"),
        ],
    )
    def test_names_a_wrong_length_or_a_value_with_none(self, values, n, message):
        with pytest.raises(ValueError, match=message):
            as_reals("phase_errors", values, n, -math.inf)

    def test_any_length_for_none(self):
        assert as_reals("x", [], None, 0) == []
        assert as_reals("x", (0.0,) * 5, None, 0) == [0.0] * 5
