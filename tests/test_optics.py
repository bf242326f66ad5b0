import cmath
import math

import numpy as np
import pytest

from udiscrim.optics import (
    BeamSplitter,
    apply_phase,
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
