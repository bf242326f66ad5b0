import hashlib
import math

import numpy as np
import pytest

import udiscrim.montecarlo
from udiscrim import simulate_drift_paths
from udiscrim.detection import DetectorModel
from udiscrim.drift import (
    DriftModel,
    ProbeModel,
    StabilizerConfig,
    evolve,
    fringe_visibility_equivalent,
    stabilize,
)


def reference_probe():
    return ProbeModel(
        coupling=1 / 3,
        program_intensity=1.33,
        visibility=0.98,
        detector=DetectorModel(0.53, 4e-7),
    )


class TestEvolve:
    def test_zero_sigma_changes_nothing(self):
        rng = np.random.default_rng(1)
        phases = np.array([0.2, -0.4])
        out = evolve(phases, DriftModel(0.0), rng)
        assert np.array_equal(out, phases)
        assert out is not phases

    def test_random_walk_variance(self):
        # After k steps the phase variance is k * sigma^2.
        sigma, k, n_paths = 0.05, 20, 10_000
        rng = np.random.default_rng(2)
        drift = DriftModel(sigma)
        phases = np.zeros(n_paths)
        for _ in range(k):
            phases = evolve(phases, drift, rng)
        want = k * sigma**2
        assert phases.var() == pytest.approx(want, rel=0.1)
        assert abs(phases.mean()) < 4 * math.sqrt(want / n_paths)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            DriftModel(-0.01)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_step_names_sigma(self):
        # Phases near the float limit overflow on a step of either sign.
        phases = np.array([1.7e308, -1.7e308] * 4)
        with pytest.raises(ValueError, match="drift sigma 1e\\+308"):
            evolve(phases, DriftModel(1e308), np.random.default_rng(5))


class TestStabilizerConfig:
    def test_zero_probe_trials_rejected(self):
        with pytest.raises(ValueError):
            StabilizerConfig(probe_trials=0)

    def test_zero_dither_rejected(self):
        with pytest.raises(ValueError):
            StabilizerConfig(dither=0.0)


class TestStabilize:
    def test_locked_loop_stays_near_zero(self):
        rng = np.random.default_rng(3)
        cfg = StabilizerConfig()
        corrections = []
        for _ in range(300):
            out, _ = stabilize(np.zeros(1), cfg, [reference_probe()], rng)
            corrections.append(out[0])
        assert abs(np.mean(corrections)) < 0.01

    @pytest.mark.parametrize("phi0", [0.3, 0.6, 1.0])
    def test_error_shrinks_in_expectation(self, phi0):
        rng = np.random.default_rng(4)
        cfg = StabilizerConfig()
        after = [
            abs(stabilize(np.array([phi0]), cfg, [reference_probe()], rng)[0][0])
            for _ in range(200)
        ]
        assert np.mean(after) < 0.7 * phi0

    def test_correction_sign_follows_error_sign(self):
        rng = np.random.default_rng(5)
        cfg = StabilizerConfig(probe_trials=20_000)
        moved_up, _ = stabilize(np.array([0.4]), cfg, [reference_probe()], rng)
        moved_dn, _ = stabilize(np.array([-0.4]), cfg, [reference_probe()], rng)
        assert moved_up[0] < 0.4
        assert moved_dn[0] > -0.4

    def test_vacuum_program_gives_no_signal(self):
        rng = np.random.default_rng(6)
        probe = ProbeModel(1 / 3, 0.0, 0.98, DetectorModel(0.53, 0.0))
        out, used = stabilize(np.array([0.5]), StabilizerConfig(), [probe], rng)
        assert out[0] == 0.5
        assert used == 0

    def test_saturated_dark_port_gives_no_signal(self):
        # 1e4 photons leave ~130 at the dark port even at phi = 0 (V = 0.98),
        # so every probe clicks at both dither points; the rate estimate must
        # stay clamped below 1, where log1p(-1) would fail.
        rng = np.random.default_rng(8)
        probe = reference_probe()
        probe = ProbeModel(probe.coupling, 1e4, probe.visibility, probe.detector)
        cfg = StabilizerConfig(probe_trials=500)
        out, used = stabilize(np.array([0.3, -0.2]), cfg, [probe, probe], rng)
        assert np.all(np.isfinite(out))
        assert out.tolist() == [0.3, -0.2]
        assert used == 2 * 2 * 500

    @pytest.mark.parametrize("dark", [0.0, 1e-3])
    @pytest.mark.parametrize("phi", [-0.6, 0.05, 0.3])
    def test_one_step_follows_its_exact_law(self, phi, dark):
        # The corrected phase as a function of the two dark-port click
        # counts k_hi, k_lo ~ Binomial(m, p(phi +/- dither)), restated here,
        # averaged over all (m + 1)^2 cells of their joint law.
        probe = reference_probe()
        probe = ProbeModel(probe.coupling, probe.program_intensity, probe.visibility,
                           DetectorModel(0.53, dark))
        cfg = StabilizerConfig(probe_trials=60)
        m, det, d = cfg.probe_trials, probe.detector, cfg.dither

        def pmf(phase):
            p = 1.0 - math.exp(-(det.dark_mean + det.eta * probe.dark_port_mean_photons(phase)))
            return [math.comb(m, k) * p**k * (1.0 - p) ** (m - k) for k in range(m + 1)]

        def photons(k):
            rate = min(k / m, 1.0 - 0.5 / m)  # the clamp keeps the log finite
            return max((-math.log1p(-rate) - det.dark_mean) / det.eta, 0.0)

        signal = 4.0 * probe.visibility * probe.coupling * probe.program_intensity * math.sin(d)
        w = np.outer(pmf(phi + d), pmf(phi - d))
        n_hat = np.array([photons(k) for k in range(m + 1)])
        sin_phi = np.clip((n_hat[:, None] - n_hat[None, :]) / signal, -1.0, 1.0)
        out = phi - cfg.gain * np.arcsin(sin_phi)
        mean = float((w * out).sum())
        var = float((w * (out - mean) ** 2).sum())
        mu4 = float((w * (out - mean) ** 4).sum())

        rng = np.random.default_rng(9)
        steps = np.array([stabilize(np.array([phi]), cfg, [probe], rng)[0][0] for _ in range(4000)])
        z_mean = (steps.mean() - mean) / math.sqrt(var / len(steps))
        z_var = (steps.var(ddof=1) - var) / math.sqrt((mu4 - var**2) / len(steps))
        assert abs(z_mean) <= 5 and abs(z_var) <= 5

    def test_probe_accounting(self):
        rng = np.random.default_rng(7)
        cfg = StabilizerConfig(probe_trials=123)
        _, used = stabilize(np.zeros(3), cfg, [reference_probe()] * 3, rng)
        assert used == 3 * 2 * 123


class TestVisibilityEquivalent:
    def test_perfect_lock(self):
        assert fringe_visibility_equivalent(0.0) == 1.0

    def test_quarter_turn(self):
        s = math.sin(0.25) ** 2
        assert fringe_visibility_equivalent(0.5) == pytest.approx((1 - s) / (1 + s), rel=1e-12)

    def test_inverted_port(self):
        assert fringe_visibility_equivalent(math.pi) == pytest.approx(0.0, abs=1e-12)


class TestDriftPaths:
    def test_shape_and_reproducibility(self):
        a = simulate_drift_paths(0.05, 10, 4, seed=11)
        b = simulate_drift_paths(0.05, 10, 4, seed=11)
        assert a.shape == (4, 10)
        assert np.array_equal(a, b)

    def test_stabilized_paths_dominated_by_free_walk(self):
        # The locked loop should not wander farther than the free walk at
        # any block, measured across paths.
        blocks, paths = 60, 100
        free = np.abs(simulate_drift_paths(0.05, blocks, paths, seed=11))
        locked = np.abs(
            simulate_drift_paths(
                0.05, blocks, paths, seed=11,
                stabilizer=StabilizerConfig(), probe=reference_probe(),
            )
        )
        free_q = np.quantile(free, [0.5, 0.75], axis=0)
        locked_q = np.quantile(locked, [0.5, 0.75], axis=0)
        assert np.all(locked_q <= free_q + 1e-9)

    @pytest.mark.parametrize(
        "locked, digest",
        [
            (False, "e42db846569955437ab1cce595aa5aa4201183481bff29f535a64a7e53e5e5a6"),
            (True, "5687e32bebccaf55349a467e086d0c3feb12c92d298e258d7a03ec6c6abea098"),
        ],
    )
    def test_path_bytes_are_pinned(self, locked, digest):
        # Five paths of 40 blocks, free and locked, bit for bit.
        lock = dict(stabilizer=StabilizerConfig(300, 0.4, 0.5), probe=reference_probe())
        paths = simulate_drift_paths(0.1, 40, 5, seed=7, **(lock if locked else {}))
        assert hashlib.sha256(paths.tobytes()).hexdigest() == digest

    def test_paths_run_the_engine_loop(self, monkeypatch):
        # One lock correction per block and path, through the engine's own
        # stabilize, the one the bench tracer wraps.
        calls = []
        real = udiscrim.montecarlo.stabilize

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(udiscrim.montecarlo, "stabilize", counted)
        blocks, paths = 6, 3
        simulate_drift_paths(0.05, blocks, paths, seed=2,
                             stabilizer=StabilizerConfig(), probe=reference_probe())
        assert len(calls) == blocks * paths

    def test_stabilized_needs_probe(self):
        with pytest.raises(ValueError):
            simulate_drift_paths(0.05, 5, 2, seed=1, stabilizer=StabilizerConfig())
