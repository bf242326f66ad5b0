import hashlib
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udiscrim import montecarlo
from udiscrim.detection import DetectorModel, InterferenceModel
from udiscrim.drift import DriftModel, StabilizerConfig
from udiscrim.montecarlo import (
    Counts,
    ExperimentConfig,
    InvariantViolation,
    binomial_stderr,
    click_matrix,
    run_experiment,
    run_trial,
)
from udiscrim.network import NStatePlan, OutcomeKind, SplitterPlan
from udiscrim.optics import from_intensity_phase
from udiscrim.sweeps import ring_programs

P_ETA53_D2_4 = 0.5067142541534744  # 1 - exp(-0.53 * 4/3), frozen oracle


def opposite_pair(intensity=1.0):
    return (
        from_intensity_phase(intensity, 0.0),
        from_intensity_phase(intensity, math.pi),
    )


@st.composite
def prior_sets(draw):
    """Priors with zeros and 1e-10s, with every CDF entry on a bucket edge
    k/4096, or with partial sums above 1 within the 1e-9 sum tolerance."""
    n = draw(st.integers(2, 64))
    kind = draw(st.sampled_from(["weights", "edges", "over"]))
    if kind == "edges":
        cuts = sorted(draw(st.lists(st.integers(0, 4096), min_size=n - 1, max_size=n - 1)))
        return tuple(np.diff([0, *cuts, 4096]) / 4096)
    weight = st.sampled_from([0.0, 1e-10]) | st.floats(0.0, 1.0)
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    weights[-1] += float(sum(weights) == 0.0)
    priors = [w / sum(weights) for w in weights]
    if kind == "over":
        priors[0] = min(1.0, priors[0] + 9e-10)
    return tuple(priors)


def base_config(**kwargs):
    defaults = dict(
        programs=opposite_pair(),
        plan=SplitterPlan(0.5),
        detectors=(DetectorModel(0.53, 0.0),),
        interference=(InterferenceModel(1.0),),
        trials_per_block=20_000,
        blocks=5,
        seed=99,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def ring_config(n, **kwargs):
    """An n-state ring with darks and imperfect visibility, bright enough
    that every outcome kind occurs; n = 2 keeps the two-state splitter plan."""
    defaults = dict(
        programs=ring_programs(n, 0.75 * n) if n > 2 else opposite_pair(),
        plan=NStatePlan(n) if n > 2 else SplitterPlan(0.5),
        detectors=(DetectorModel(0.53, 0.05),),
        interference=(InterferenceModel(0.9),),
    )
    defaults.update(kwargs)
    return base_config(**defaults)


def replay_priors(n):
    """Uniform, skewed, and one-hot on the first, middle and last state."""
    skew = [2.0 ** -j for j in range(n)]
    cases = {"uniform": None, "skewed": tuple(w / sum(skew) for w in skew)}
    for k in sorted({0, n // 2, n - 1}):
        cases[f"one-hot-{k}"] = tuple(float(j == k) for j in range(n))
    return cases


REPLAY_CASES = [
    pytest.param(n, priors, id=f"n{n}-{name}")
    for n in (2, 3, 8)
    for name, priors in replay_priors(n).items()
]


class TestConfig:
    def test_priors_default_uniform(self):
        cfg = base_config()
        assert cfg.priors == (0.5, 0.5)

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError):
            base_config(priors=(0.7, 0.6))
        with pytest.raises(ValueError):
            base_config(priors=(1.2, -0.2))

    def test_single_detector_broadcasts(self):
        cfg = base_config()
        assert len(cfg.detectors) == 2
        assert cfg.detectors[0] == cfg.detectors[1]

    def test_plan_and_program_count_must_match(self):
        with pytest.raises(ValueError):
            base_config(plan=NStatePlan(3))

    def test_run_size_is_capped_before_anything_is_allocated(self):
        base_config(blocks=montecarlo.MAX_BLOCKS, trials_per_block=montecarlo.MAX_TRIALS_PER_BLOCK)
        for kwargs in (
            dict(blocks=montecarlo.MAX_BLOCKS + 1),
            dict(blocks=10**12),
            dict(trials_per_block=montecarlo.MAX_TRIALS_PER_BLOCK + 1),
            dict(trials_per_block=10**12),
        ):
            with pytest.raises(ValueError, match="at most"):
                base_config(**kwargs)


class TestDeterminism:
    def test_same_trial_same_outcome(self):
        cfg = base_config()
        a = run_trial(cfg, 123)
        b = run_trial(cfg, 123)
        assert a == b

    def test_trials_differ_across_indices(self):
        cfg = base_config()
        outcomes = {run_trial(cfg, i) for i in range(64)}
        assert len(outcomes) > 1

    @pytest.mark.parametrize("n, priors", REPLAY_CASES)
    def test_run_trial_reproduces_engine_counts(self, n, priors):
        # Two blocks, so the replay also covers the block offset into the stream.
        cfg = ring_config(n, priors=priors, trials_per_block=300, blocks=2)
        res = run_experiment(cfg)
        tally = {k: 0 for k in OutcomeKind}
        plus = [0] * n
        minus = [0] * n
        for i in range(cfg.total_trials):
            out = run_trial(cfg, i)
            tally[out.kind] += 1
            if out.kind is OutcomeKind.CORRECT:
                plus[out.true_index] += 1
            elif out.kind is OutcomeKind.ERRONEOUS:
                minus[out.true_index] += 1
        assert tuple(plus) == res.counts.c_plus
        assert tuple(minus) == res.counts.c_minus
        assert tally[OutcomeKind.NO_CLICK] == res.counts.no_clicks
        assert tally[OutcomeKind.MULTI_CLICK] == res.counts.double_clicks

    @pytest.mark.parametrize(
        "priors, truth",
        [
            ((1.0, 0.0), 0),
            ((0.0, 1.0), 1),
            ((0.0, 0.0, 1.0), 2),
            ((1.0, 1e-10), 0),
            ((1e-10, 1.0), None),
            ((0.0, 1 - 5e-10, 5e-10), None),
            ((0.5, 0.5), None),
        ],
    )
    def test_constant_truth_rule(self, priors, truth):
        cdf = montecarlo._prior_cdf(priors)
        assert montecarlo._constant_truth(cdf) == truth
        # The rule agrees with the search it replaces at both ends of [0, 1).
        ends = np.searchsorted(cdf, [0.0, np.nextafter(1.0, 0.0)], side="right")
        assert (ends[0] == ends[1] == truth) or (truth is None and ends[0] != ends[1])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(priors=prior_sets(), seed=st.integers(0, 2**32 - 1))
    def test_truth_lookup_matches_the_search(self, priors, seed):
        # ExperimentConfig takes the priors, so they are ones a run can see.
        priors = base_config(programs=ring_programs(len(priors), 1.0), plan=NStatePlan(len(priors)),
                             priors=priors).priors
        cdf = montecarlo._prior_cdf(priors)
        buckets = 1 << montecarlo._TRUTH_BITS
        edges = np.arange(buckets) / buckets
        u0 = np.concatenate([
            np.random.default_rng(seed).random(buckets),
            edges,
            np.nextafter(edges[1:], 0.0),
            [np.nextafter(1.0, 0.0)],
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 2.0),
        ])
        u0 = u0[(u0 >= 0.0) & (u0 < 1.0)]
        table = montecarlo._truth_table(cdf)
        got = montecarlo._truths(table, cdf, u0)
        assert np.array_equal(got, np.searchsorted(cdf, u0, side="right"))

    def test_rerun_and_worker_invariance(self):
        cfg = base_config()
        first = run_experiment(cfg)
        again = run_experiment(cfg)
        sharded = run_experiment(cfg, workers=8)
        assert first.counts == again.counts == sharded.counts
        assert first.block_counts == sharded.block_counts

    @pytest.mark.parametrize(
        "trials, cores, sizes",
        [(70_000, 64, [2]), (70_000, 1, []), (65_536, 64, [])],
    )
    def test_pool_is_sized_from_the_work(self, monkeypatch, trials, cores, sizes):
        # A huge worker count starts no more threads than a block has chunks
        # or the machine has cores, and blocks of one chunk build no pool.
        built = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cores)
        cfg = base_config(trials_per_block=trials, blocks=1)
        res = run_experiment(cfg, workers=4096)
        assert built == sizes
        assert res.counts == run_experiment(cfg).counts

    @pytest.mark.parametrize("trials", [1, 2, 4097, 65_536, 65_537, 100_000, 200_001, 10**10])
    def test_chunks_tile_the_block_evenly(self, trials):
        base = 3 * trials
        bounds = montecarlo._chunk_bounds(base, trials)
        assert len(bounds) == -(-trials // montecarlo._CHUNK)
        edges = [lo for lo, _ in bounds] + [bounds[-1][1]]
        assert edges[0] == base and edges[-1] == base + trials
        assert [hi for _, hi in bounds] == edges[1:]
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) <= montecarlo._CHUNK
        assert max(sizes) - min(sizes) <= 1

    # 1 draw still slices one trial at a time; 84 and 11724 draws are 7 and
    # 977 trials at n = 8, 21 and 2931 at n = 3 and at n = 2, 10 and 1465 at
    # n = 4.  At the default budget a chunk is one slice, and the buffers
    # sized for the first chunk must grow for the second.
    @pytest.mark.parametrize("slice_draws", [1, 84, 11724, montecarlo._SLICE_DRAWS])
    @pytest.mark.parametrize(
        "n, priors, drift",
        [
            pytest.param(8, None, None, id="n8-uniform"),
            pytest.param(3, (0.6, 0.3, 0.1), DriftModel(0.2), id="n3-skewed-drift"),
            pytest.param(4, (0.0, 0.0, 1.0, 0.0), None, id="n4-one-hot"),
            pytest.param(2, (0.0, 1.0), None, id="n2-one-hot"),
        ],
    )
    def test_slicing_never_moves_a_count(self, monkeypatch, slice_draws, n, priors, drift):
        cfg = ring_config(n, priors=priors, drift=drift, trials_per_block=5001, blocks=2)
        expected = run_experiment(cfg).block_counts
        monkeypatch.setattr(montecarlo, "_SLICE_DRAWS", slice_draws)
        # Each block runs as chunks of 2500 and 2501 trials, in that order on
        # one thread, with a ragged last slice.
        monkeypatch.setattr(montecarlo, "_CHUNK", 2501)
        assert run_experiment(cfg).block_counts == expected

    @pytest.mark.parametrize(
        "n, priors",
        [
            pytest.param(8, None, id="n8-uniform"),
            pytest.param(2, (0.0, 1.0), id="n2-one-hot"),
            pytest.param(3, (1.0, 0.0, 0.0), id="n3-one-hot"),
            pytest.param(8, (0.0,) * 5 + (1.0, 0.0, 0.0), id="n8-one-hot"),
        ],
    )
    def test_kept_generator_matches_fresh_ones(self, monkeypatch, n, priors):
        cfg = ring_config(n, priors=priors, seed=5)
        # Another experiment with its own seed, stride and n keeps its own
        # tally on the same thread in between.
        other = ring_config(5, seed=6)
        phases = np.random.default_rng(n).normal(0.0, 0.3, size=n)

        def tally(c, phases):
            work = montecarlo._Tally(c, montecarlo._streams(c.seed)[0]).tally
            matrix = click_matrix(c, phases)
            return lambda bounds: work(bounds, matrix).tolist()

        monkeypatch.setattr(montecarlo, "_CHUNK", 700)
        # Block 1 of 2000-trial blocks, in chunks of 666 and 667 trials.
        bounds = montecarlo._chunk_bounds(2000, 2000)
        assert len(bounds) == 3

        # A fresh tally, and so a fresh generator, for each chunk.
        expected = [tally(cfg, phases)(b) for b in bounds]
        other_expected = [tally(other, np.zeros(5))(b) for b in bounds]

        kept, kept_other = tally(cfg, phases), tally(other, np.zeros(5))
        assert [kept(b) for b in bounds] == expected
        assert [kept(b) for b in reversed(bounds)] == expected[::-1]
        mixed = [(kept(b), kept_other(o)) for b, o in zip(bounds, reversed(bounds))]
        assert [a for a, _ in mixed] == expected
        assert [o for _, o in mixed] == other_expected[::-1]

    def test_one_tally_serves_more_threads_than_cores(self, monkeypatch):
        cfg = ring_config(8, seed=3)
        meas_ss = montecarlo._streams(cfg.seed)[0]
        matrix = click_matrix(cfg, np.zeros(8))
        monkeypatch.setattr(montecarlo, "_CHUNK", 500)
        bounds = montecarlo._chunk_bounds(0, 20_000)
        expected = [montecarlo._Tally(cfg, meas_ss).tally(b, matrix).tolist() for b in bounds]
        # 40 chunks on 8 threads, switching often: a generator that the
        # threads shared, not one each, would mix up their streams.
        tally = montecarlo._Tally(cfg, meas_ss).tally
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                shared = pool.map(lambda b: tally(b, matrix).tolist(), bounds, timeout=60)
                assert list(shared) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_memory_does_not_grow_with_block_size(self):
        def peak(trials, workers):
            cfg = ring_config(8, trials_per_block=trials, blocks=2)
            tracemalloc.start()
            try:
                run_experiment(cfg, workers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_experiment(ring_config(8, trials_per_block=1000, blocks=1), workers=2)  # warm-up
        # A 2**14-trial block is one chunk, so it runs on one thread.
        one_thread = peak(1 << 14, 1)
        for workers in (1, 2):
            # Blocks of four whole chunks: each thread holds one slice at a time.
            assert peak(1 << 18, workers) <= 1.1 * workers * one_thread
        assert peak(1 << 18, 2) < 5e6

    def test_seed_changes_results(self):
        a = run_experiment(base_config(seed=1))
        b = run_experiment(base_config(seed=2))
        assert a.counts != b.counts


class TestPhysics:
    def test_null_port_forbids_errors_and_double_clicks(self):
        cfg = base_config(priors=(1.0, 0.0), trials_per_block=5_000, blocks=2)
        for i in range(1000):
            out = run_trial(cfg, i)
            assert out.kind in (OutcomeKind.CORRECT, OutcomeKind.NO_CLICK)
            if out.kind is OutcomeKind.CORRECT:
                assert out.reported == 0
        res = run_experiment(cfg)
        assert sum(res.counts.c_minus) == 0
        assert res.counts.double_clicks == 0

    def test_no_erroneous_outcomes_with_ideal_interference(self):
        cfg = base_config(trials_per_block=50_000, blocks=2, seed=5)
        res = run_experiment(cfg)
        assert sum(res.counts.c_minus) == 0

    def test_identical_states_click_only_from_darks(self):
        alpha = from_intensity_phase(1.0, 0.0)
        dark = 1e-3
        cfg = base_config(
            programs=(alpha, alpha),
            detectors=(DetectorModel(0.53, dark),),
            trials_per_block=50_000,
            blocks=2,
            seed=17,
        )
        res = run_experiment(cfg)
        p_dark = -math.expm1(-dark)
        want_no_click = (1.0 - p_dark) ** 2
        got = res.counts.no_clicks / res.counts.c_tot
        se = binomial_stderr(want_no_click, res.counts.c_tot)
        assert abs(got - want_no_click) < 4 * se

    def test_conclusive_fraction_matches_analytic(self):
        cfg = base_config(trials_per_block=100_000, blocks=10, seed=3)
        res = run_experiment(cfg)
        got = res.counts.conclusive / res.counts.c_tot
        se = binomial_stderr(P_ETA53_D2_4, res.counts.c_tot)
        assert abs(got - P_ETA53_D2_4) < 3 * se

    def test_symmetric_plan_balances_the_two_states(self):
        cfg = base_config(trials_per_block=100_000, blocks=10, seed=13)
        res = run_experiment(cfg)
        f = res.fractions
        combined = math.hypot(float(f.se_p_plus[0]), float(f.se_p_plus[1]))
        assert abs(float(f.p_plus[0]) - float(f.p_plus[1])) < 4 * combined

    def test_visibility_defect_produces_errors(self):
        cfg = base_config(
            interference=(InterferenceModel(0.9),),
            trials_per_block=50_000,
            blocks=2,
            seed=23,
        )
        res = run_experiment(cfg)
        assert sum(res.counts.c_minus) > 0

    def test_click_matrix_null_diagonal(self):
        cfg = base_config()
        m = click_matrix(cfg, np.zeros(2))
        # The nulls close only to rounding error, far below one click per
        # any realistic number of trials.
        assert m[0, 0] < 1e-30
        assert m[1, 1] < 1e-30
        assert m[0, 1] == pytest.approx(P_ETA53_D2_4, rel=1e-12)
        assert m[1, 0] == pytest.approx(P_ETA53_D2_4, rel=1e-12)


class TestCountsAndFractions:
    def test_partition_always_exact(self):
        res = run_experiment(base_config())
        counts = res.counts
        assert counts.conclusive + counts.inconclusive == counts.c_tot
        for c in res.block_counts:
            c.check()

    def test_check_raises_on_corruption(self):
        bad = Counts((1, 0), (0, 0), 0, 0, 5)
        with pytest.raises(InvariantViolation):
            bad.check()

    def test_addition(self):
        a = Counts((1, 2), (0, 1), 3, 4, 11)
        b = Counts((5, 0), (1, 0), 0, 2, 8)
        total = a + b
        assert total == Counts((6, 2), (1, 1), 3, 6, 19)
        total.check()

    def test_counts_survive_huge_totals(self):
        huge = Counts((2**62, 2**62), (0, 0), 0, 2**62, 3 * 2**62)
        doubled = huge + huge
        doubled.check()
        assert doubled.c_tot == 3 * 2**63

    def test_block_stderr_definition(self):
        res = run_experiment(base_config(seed=7))
        f_blocks = [c.c_plus[0] / c.c_tot for c in res.block_counts]
        want = np.std(f_blocks, ddof=1) / math.sqrt(len(f_blocks))
        assert res.fractions.se_p_plus[0] == pytest.approx(want, rel=1e-12)

    def test_single_block_falls_back_to_binomial(self):
        res = run_experiment(base_config(blocks=1))
        p = float(res.fractions.p_plus[0])
        want = binomial_stderr(p, res.counts.c_tot)
        assert res.fractions.se_p_plus[0] == pytest.approx(want, rel=1e-12)

    def test_fractions_sum_to_one(self):
        res = run_experiment(base_config(seed=31))
        f = res.fractions
        total = float(f.p_plus.sum() + f.p_minus.sum()) + f.p_inconclusive
        assert total == pytest.approx(1.0, abs=1e-12)


T9_975 = 2.2621571627409915  # 97.5 % quantile of Student's t, 9 degrees of freedom


def _expected_fractions(cfg, history):
    """Exact P_j^+ and inconclusive share from the exclusion law, averaged
    over the blocks' phases: only j survives when every other port clicks."""
    n, priors = cfg.n_states, np.asarray(cfg.priors)
    plus, inconclusive = np.zeros(n), 0.0
    for phases in history:
        m = click_matrix(cfg, phases)
        alone = np.array([[(1 - m[t, j]) * np.prod(np.delete(m[t], j)) for j in range(n)]
                          for t in range(n)])
        plus += priors * np.diag(alone)
        inconclusive += 1.0 - priors @ alone.sum(axis=1)
    return plus / len(history), inconclusive / len(history)


def _binomial_tails(n, p, alpha):
    """The least and greatest count k of Binomial(n, p) with
    P(K < k) <= alpha and P(K > k) <= alpha."""
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    lo = max(k for k in range(n + 1) if sum(pmf[:k]) <= alpha)
    hi = min(k for k in range(n + 1) if sum(pmf[k + 1 :]) <= alpha)
    return lo, hi


class TestBlockErrorCoverage:
    SEEDS = 75  # per scenario; four scenarios per drift setting
    PRIORS = {2: ((1.0, 0.0), (0.3, 0.7)), 3: ((0.0, 0.0, 1.0), (0.5, 0.3, 0.2))}

    @pytest.mark.parametrize("drift", [False, True], ids=["no-drift", "drift-locked"])
    def test_t_intervals_cover_the_expected_fractions(self, drift):
        # Ten blocks give Student-t 95 % intervals p +/- t9 * se.  Runs are
        # independent, so each quantity's covering count is Binomial(runs,
        # 0.95) (approximately, since block fractions are near normal).  Under
        # drift the block spread also holds the drift's block-to-block
        # variation, so the intervals may only cover more often.
        lock = dict(drift=DriftModel(0.1), stabilizer=StabilizerConfig()) if drift else {}
        covered = {"p_plus": 0, "p_inconclusive": 0}
        for n, cases in self.PRIORS.items():
            for priors in cases:
                for seed in range(self.SEEDS):
                    cfg = ring_config(n, priors=priors, trials_per_block=2000, blocks=10,
                                      seed=seed, **lock)
                    res = run_experiment(cfg)
                    f = res.fractions
                    plus, inconclusive = _expected_fractions(cfg, res.phase_history)
                    k = int(np.argmax(priors)) if max(priors) == 1.0 else seed % n
                    covered["p_plus"] += abs(f.p_plus[k] - plus[k]) <= T9_975 * f.se_p_plus[k]
                    covered["p_inconclusive"] += (
                        abs(f.p_inconclusive - inconclusive) <= T9_975 * f.se_p_inconclusive
                    )
        lo, hi = _binomial_tails(4 * self.SEEDS, 0.95, 1e-4)
        for count in covered.values():
            assert lo <= count
            assert drift or count <= hi, covered


class TestBinomialStderr:
    def test_reference_values(self):
        assert binomial_stderr(0.5, 100) == pytest.approx(0.05, rel=1e-12)
        assert binomial_stderr(0.0, 1000) == 0.0
        assert binomial_stderr(0.5067, 10**6) == pytest.approx(4.9995e-4, rel=1e-3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            binomial_stderr(1.2, 10)
        with pytest.raises(ValueError):
            binomial_stderr(0.5, 0)


class TestDriftIntegration:
    def test_probe_trials_do_not_touch_measurement_counts(self):
        kwargs = dict(
            drift=DriftModel(0.05),
            trials_per_block=5_000,
            blocks=4,
            seed=77,
        )
        lean = run_experiment(base_config(stabilizer=StabilizerConfig(probe_trials=100), **kwargs))
        rich = run_experiment(base_config(stabilizer=StabilizerConfig(probe_trials=5000), **kwargs))
        assert lean.counts.c_tot == rich.counts.c_tot == 20_000
        assert lean.probe_pulses == 4 * 2 * 100 * 2
        assert rich.probe_pulses == 4 * 2 * 5000 * 2

    def test_drift_phase_history_recorded(self):
        res = run_experiment(base_config(drift=DriftModel(0.1), seed=5))
        assert res.phase_history.shape == (5, 2)
        assert np.any(res.phase_history != 0.0)

    def test_no_drift_keeps_phases_zero(self):
        res = run_experiment(base_config())
        assert np.all(res.phase_history == 0.0)

    def test_drift_without_lock_causes_errors(self):
        cfg = base_config(
            drift=DriftModel(0.3),
            trials_per_block=20_000,
            blocks=10,
            seed=8,
        )
        res = run_experiment(cfg)
        assert sum(res.counts.c_minus) > 0

    @pytest.mark.parametrize(
        "t0, digest",
        [
            (0.5, "a3f80f0e3d2fe3bf88280b2d8aa51edb7e98032d01095cc85347acaa12ed688f"),
            (0.3, "a009da35643c9236b91f60de36610c940bdc920c09c950f641c6ccf0cbc7de96"),
        ],
    )
    def test_locked_phase_history_bytes_are_pinned(self, t0, digest):
        # The lock divides by each port's coupling, so even a last-bit
        # change in it moves the phase history, long before any count moves.
        cfg = base_config(
            plan=SplitterPlan(t0),
            detectors=(DetectorModel(0.53, 4e-7),),
            interference=(InterferenceModel(0.98),),
            priors=(1.0, 0.0),
            trials_per_block=1000,
            blocks=8,
            seed=3,
            drift=DriftModel(0.1),
            stabilizer=StabilizerConfig(),
        )
        res = run_experiment(cfg)
        assert hashlib.sha256(res.phase_history.tobytes()).hexdigest() == digest
