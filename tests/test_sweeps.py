import math
import os
import threading

import numpy as np
import pytest

from udiscrim.detection import DetectorModel, analytic_nstate_success
from udiscrim.montecarlo import binomial_stderr
from udiscrim import sweeps
from udiscrim.network import NStatePlan
from udiscrim.sweeps import (
    MAX_POINTS,
    MAX_STATES,
    NSTATE_COLUMNS,
    RESULT_COLUMNS,
    ScenarioParams,
    SweepSpec,
    nstate_report,
    ring_programs,
    sweep_intensity,
    sweep_phase,
    sweep_ratio,
)

# Frozen direct evaluations of the success law.
P_ETA53_D2_4 = 0.5067142541534744    # 1 - exp(-0.53 * 4/3)
P_IDEAL_D2_4 = 0.7364028618842733    # 1 - exp(-4/3)
P_ETA53_I2 = 0.7566691729446369      # 1 - exp(-0.53 * 8/3)
P_RATIO_R0 = 0.20940279757039926     # 1 - exp(-0.53 * 1.33 / 3)
P_RATIO_R1_OPP = 0.6093200774576961  # 1 - exp(-0.53 * 1.33 * 4/3)


def fast_params(**kwargs):
    defaults = dict(dark=0.0, vis1=1.0, vis2=1.0, trials=4000, blocks=4, seed=5)
    defaults.update(kwargs)
    return ScenarioParams(**defaults)


def column(table, name):
    i = table.columns.index(name)
    return [row[i] for row in table.rows]


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(0.0, 360.0, 1)
        with pytest.raises(ValueError):
            SweepSpec(0.0, math.inf, 5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_span_past_the_float_range_names_start_and_stop(self):
        with pytest.raises(ValueError, match="got start=-1.7e\\+308, stop=1.7e\\+308"):
            SweepSpec(-1.7e308, 1.7e308, 3)
        assert np.isfinite(SweepSpec(-8e307, 8e307, 3).grid()).all()

    def test_points_are_capped_before_the_grid_is_built(self):
        assert len(SweepSpec(0.0, 1.0, MAX_POINTS).grid()) == MAX_POINTS
        for points in (MAX_POINTS + 1, 10**12):
            with pytest.raises(ValueError, match="points"):
                SweepSpec(0.0, 1.0, points)

    def test_grid(self):
        spec = SweepSpec(0.0, 3.0, 4)
        assert np.allclose(spec.grid(), [0.0, 1.0, 2.0, 3.0])


class TestSweepPhase:
    def test_table_layout_and_analytics(self):
        spec = SweepSpec(0.0, 360.0, 9)
        table = sweep_phase(spec, fast_params())
        assert table.columns == RESULT_COLUMNS
        assert len(table.rows) == 9
        xs = column(table, "x")
        p1 = column(table, "analytic_p1")
        # Equal states at 0 and 360 degrees: no success possible.
        assert p1[0] == pytest.approx(0.0, abs=1e-12)
        assert p1[-1] == pytest.approx(0.0, abs=1e-10)
        # Opposite states at 180 degrees.
        mid = xs.index(180.0)
        assert p1[mid] == pytest.approx(P_ETA53_D2_4, rel=1e-9)
        # Cosine symmetry about 180 degrees.
        for left, right in zip(p1, reversed(p1)):
            assert left == pytest.approx(right, abs=1e-9)

    def test_monte_carlo_tracks_analytic(self):
        spec = SweepSpec(0.0, 360.0, 5)
        params = fast_params(trials=20_000, blocks=5)
        table = sweep_phase(spec, params)
        n = params.trials * params.blocks
        for row in table.rows:
            row_map = dict(zip(table.columns, row))
            for got, want in (
                (row_map["p_plus_1"], row_map["analytic_p1"]),
                (row_map["p_plus_2"], row_map["analytic_p2"]),
            ):
                tol = 4 * max(binomial_stderr(want, n), 1e-12)
                assert abs(got - want) <= tol
            assert row_map["p_minus_1"] == 0.0
            assert row_map["p_minus_2"] == 0.0

    def test_fractions_land_in_unit_interval(self):
        spec = SweepSpec(0.0, 360.0, 5)
        table = sweep_phase(spec, fast_params())
        for name in table.columns[1:]:
            for v in column(table, name):
                assert math.isfinite(v)
                if not name.startswith("se_"):
                    assert 0.0 <= v <= 1.0


class TestSweepIntensity:
    def test_curves_follow_the_exponential_law(self):
        spec = SweepSpec(0.0, 3.0, 13)
        table = sweep_intensity(spec, fast_params())
        xs = column(table, "x")
        measured = column(table, "analytic_p1")
        ideal = column(table, "analytic_p1_ideal")
        for x, m, i in zip(xs, measured, ideal):
            assert m == pytest.approx(-math.expm1(-0.53 * 4.0 * x / 3.0), rel=1e-9, abs=1e-12)
            assert i == pytest.approx(-math.expm1(-4.0 * x / 3.0), rel=1e-9, abs=1e-12)
            assert i >= m
        assert all(b > a for a, b in zip(measured, measured[1:]))
        assert measured[0] == 0.0

    def test_reference_points(self):
        spec = SweepSpec(1.0, 2.0, 2)
        table = sweep_intensity(spec, fast_params())
        row1 = dict(zip(table.columns, table.rows[0]))
        row2 = dict(zip(table.columns, table.rows[1]))
        assert row1["analytic_p1_ideal"] == pytest.approx(P_IDEAL_D2_4, rel=1e-12)
        assert row2["analytic_p1"] == pytest.approx(P_ETA53_I2, rel=1e-12)


class TestSweepRatio:
    def test_curve_geometry(self):
        spec = SweepSpec(0.0, 4.0, 17)
        table = sweep_ratio(spec, fast_params(intensity1=1.33))
        xs = column(table, "x")
        opposite = column(table, "analytic_p1")
        in_phase = column(table, "analytic_p2")
        # Both curves coincide at r=0 where state 2 is vacuum.
        assert opposite[0] == pytest.approx(P_RATIO_R0, rel=1e-12)
        assert in_phase[0] == pytest.approx(P_RATIO_R0, rel=1e-12)
        # The in-phase curve dies exactly at r=1; the opposite-phase curve peaks.
        at_one = xs.index(1.0)
        assert in_phase[at_one] == pytest.approx(0.0, abs=1e-12)
        assert opposite[at_one] == pytest.approx(P_RATIO_R1_OPP, rel=1e-12)
        # They only meet at r=0 on this range.
        for r, a, b in zip(xs[1:], opposite[1:], in_phase[1:]):
            assert a > b

    def test_monte_carlo_tracks_both_curves(self):
        spec = SweepSpec(0.0, 4.0, 5)
        params = fast_params(intensity1=1.33, trials=20_000, blocks=5)
        table = sweep_ratio(spec, params)
        n = params.trials * params.blocks
        for row in table.rows:
            row_map = dict(zip(table.columns, row))
            for got, want in (
                (row_map["p_plus_1"], row_map["analytic_p1"]),
                (row_map["p_plus_2"], row_map["analytic_p2"]),
            ):
                tol = 4 * max(binomial_stderr(want, n), 1e-12)
                assert abs(got - want) <= tol


class TestNStateReport:
    def test_two_state_report_matches_pairwise_law(self):
        table = nstate_report(2, fast_params())
        assert table.columns == NSTATE_COLUMNS
        programs = ring_programs(2, 1.0, 0.0)
        det = DetectorModel(0.53, 0.0)
        for k, row in enumerate(table.rows):
            row_map = dict(zip(table.columns, row))
            assert row_map["k"] == k + 1
            want = analytic_nstate_success(programs, k, NStatePlan(2), det)
            assert row_map["analytic_success"] == pytest.approx(want, rel=1e-12)
            tol = 4 * max(binomial_stderr(want, 16_000), 1e-12)
            assert abs(row_map["p_plus"] - want) <= tol

    def test_identical_programs_always_inconclusive(self):
        params = fast_params(trials=2000, blocks=2)
        table = nstate_report(3, params, programs=(1 + 0j, 1 + 0j, 1 + 0j))
        for row in table.rows:
            row_map = dict(zip(table.columns, row))
            assert row_map["analytic_success"] == 0.0
            assert row_map["p_plus"] == 0.0
            assert row_map["p_minus"] == 0.0
            assert row_map["p_inconclusive"] == 1.0

    def test_ring_success_shrinks_with_more_states(self):
        # Ring radius fixed: packing more states reduces every pairwise
        # distance, so conclusive identification gets rarer.
        params = fast_params(trials=1000, blocks=2)
        succ = []
        for n in range(2, 7):
            table = nstate_report(n, params)
            succ.append(column(table, "analytic_success")[0])
        assert all(b < a for a, b in zip(succ, succ[1:]))

    def test_state_count_is_capped_before_the_ring_is_built(self, monkeypatch):
        def tripwire(*_args, **_kwargs):
            pytest.fail("state count reached ring_programs unchecked")

        monkeypatch.setattr(sweeps, "ring_programs", tripwire)
        for n in (1, MAX_STATES + 1):
            message = f"n must be an integer >= 2 and at most {MAX_STATES}, got {n}$"
            with pytest.raises(ValueError, match=message):
                nstate_report(n, ScenarioParams(trials=10, blocks=1))

    def test_program_count_must_match(self):
        with pytest.raises(ValueError):
            nstate_report(3, fast_params(), programs=(1 + 0j, -1 + 0j))


class TestExperimentOrder:
    """The benchmark's Recorder wraps ``sweeps.run_experiment`` and appends
    each call as it returns; its checks match the calls to their truths by
    position.  So every preset must run its experiments in this process,
    one after another, in truth order."""

    @pytest.fixture
    def calls(self, monkeypatch):
        sink = []
        original = sweeps.run_experiment

        def recorded(cfg, workers=1):
            res = original(cfg, workers)
            sink.append((cfg, workers, os.getpid(), threading.get_ident()))
            return res

        monkeypatch.setattr(sweeps, "run_experiment", recorded)
        return sink

    @staticmethod
    def assert_in_process(calls, workers):
        assert {c[1:] for c in calls} == {(workers, os.getpid(), threading.get_ident())}

    def test_nstate_report_runs_its_truths_in_order(self, calls):
        params = fast_params(trials=500, blocks=2)
        nstate_report(4, params, workers=2)
        self.assert_in_process(calls, 2)
        assert [cfg.priors for cfg, *_ in calls] == [
            tuple(float(j == k) for j in range(4)) for k in range(4)
        ]
        assert [cfg.seed for cfg, *_ in calls] == [
            sweeps._subseed(params.seed, k, 0) for k in range(4)
        ]

    def test_sweep_ratio_runs_its_points_and_tags_in_order(self, calls):
        params = fast_params(trials=500, blocks=2)
        sweep_ratio(SweepSpec(0.0, 2.0, 3), params)
        self.assert_in_process(calls, 1)
        assert [cfg.priors for cfg, *_ in calls] == [(1.0, 0.0)] * 6
        assert [cfg.seed for cfg, *_ in calls] == [
            sweeps._subseed(params.seed, point, tag) for point in range(3) for tag in (1, 2)
        ]
