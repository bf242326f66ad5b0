import itertools
import math

import numpy as np
import pytest

from udiscrim.network import (
    NStatePlan,
    OutcomeKind,
    SplitterPlan,
    classify,
    detector_amplitudes,
    outcome_from_clicks,
    port_contributions,
)
from udiscrim.optics import intensity


def random_state(rng):
    return complex(rng.normal(), rng.normal())


class TestSplitterPlan:
    def test_balanced_input_gives_thirds(self):
        plan = SplitterPlan(0.5)
        assert plan.t1 == 2 / 3
        assert plan.t2 == 1 / 3

    def test_defining_relations_randomized(self):
        rng = np.random.default_rng(31)
        for t0 in rng.uniform(1e-6, 1 - 1e-6, size=200):
            plan = SplitterPlan(float(t0))
            assert plan.t1 * (1.0 + t0) == pytest.approx(1.0, rel=1e-15)
            assert plan.t2 * (2.0 - t0) == pytest.approx(1.0 - t0, rel=1e-15)

    def test_boundaries_warn_but_build(self):
        with pytest.warns(UserWarning):
            plan = SplitterPlan(0.0)
        assert (plan.t1, plan.t2) == (1.0, 0.5)
        with pytest.warns(UserWarning):
            plan = SplitterPlan(1.0)
        assert (plan.t1, plan.t2) == (0.5, 0.0)

    @pytest.mark.parametrize("t0", [0.0, 1.0])
    def test_boundary_warning_points_at_the_caller(self, t0):
        with pytest.warns(UserWarning) as record:
            SplitterPlan(t0)
        assert [w.filename for w in record] == [__file__]

    def test_out_of_range_rejected(self):
        for t0 in (-0.01, 1.01):
            with pytest.raises(ValueError):
                SplitterPlan(t0)

    def test_plan_keeps_its_splitters(self):
        plan = SplitterPlan(0.3)
        assert plan.splitters is plan.splitters
        assert [bs.transmittance for bs in plan.splitters] == [plan.t0, plan.t1, plan.t2]
        nplan = NStatePlan(5)
        assert nplan.taps is nplan.taps and nplan.stage is nplan.stage
        assert [bs.transmittance for bs in nplan.taps] == [4 / 5, 3 / 4, 2 / 3, 1 / 2]
        assert nplan.stage.transmittance == nplan.stage_transmittance
        # The kept splitters do not take part in equality or hashing.
        assert plan == SplitterPlan(0.3) and hash(nplan) == hash(NStatePlan(5))


class TestDetectorAmplitudes:
    def test_both_nulls_when_everything_equal(self):
        d = detector_amplitudes(0.7 + 0.2j, (0.7 + 0.2j, 0.7 + 0.2j), SplitterPlan(0.4))
        assert abs(d[0]) < 1e-12
        assert abs(d[1]) < 1e-12

    def test_known_intensities_at_balanced_plan(self):
        plan = SplitterPlan(0.5)
        # Unknown equals state 1: port 1 dark, port 2 carries |a2-a1|^2/3 = 4/3.
        d = detector_amplitudes(1 + 0j, (1 + 0j, -1 + 0j), plan)
        assert intensity(d[0]) == pytest.approx(0.0, abs=1e-24)
        assert intensity(d[1]) == pytest.approx(4 / 3, rel=1e-12)
        # Unknown equals state 2: mirrored.
        d = detector_amplitudes(-1 + 0j, (1 + 0j, -1 + 0j), plan)
        assert intensity(d[0]) == pytest.approx(4 / 3, rel=1e-12)
        assert intensity(d[1]) == pytest.approx(0.0, abs=1e-24)

    def test_null_ports_randomized(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            t0 = rng.uniform(1e-3, 1 - 1e-3)
            a1, a2 = random_state(rng), random_state(rng)
            plan = SplitterPlan(float(t0))
            d = detector_amplitudes(a1, (a1, a2), plan)
            assert abs(d[0]) < 1e-12
            d = detector_amplitudes(a2, (a1, a2), plan)
            assert abs(d[1]) < 1e-12

    def test_closed_form_agreement_randomized(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            t0 = rng.uniform(1e-3, 1 - 1e-3)
            unknown, a1, a2 = (random_state(rng) for _ in range(3))
            plan = SplitterPlan(float(t0))
            d = detector_amplitudes(unknown, (a1, a2), plan)
            want1 = t0 / (1.0 + t0) * intensity(a1 - unknown)
            want2 = (1.0 - t0) / (2.0 - t0) * intensity(a2 - unknown)
            assert intensity(d[0]) == pytest.approx(want1, rel=1e-12, abs=1e-15)
            assert intensity(d[1]) == pytest.approx(want2, rel=1e-12, abs=1e-15)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(34)
        plan = SplitterPlan(0.37)
        unknown, a1, a2 = (random_state(rng) for _ in range(3))
        base = tuple(map(intensity, detector_amplitudes(unknown, (a1, a2), plan)))
        for theta in (0.3, 1.7, -2.2):
            rot = complex(math.cos(theta), math.sin(theta))
            ports = detector_amplitudes(unknown * rot, (a1 * rot, a2 * rot), plan)
            rotated = tuple(map(intensity, ports))
            assert rotated == pytest.approx(base, rel=1e-12)

    def test_phase_error_opens_null_port(self):
        plan = SplitterPlan(0.5)
        d = detector_amplitudes(1 + 0j, (1 + 0j, -1 + 0j), plan, phase_errors=(0.1, 0.0))
        leak = intensity(d[0])
        want = (1 / 3) * (2 - 2 * math.cos(0.1))
        assert leak == pytest.approx(want, rel=1e-12)
        # None is the one spelling of "no phase error" in both two-state
        # functions, as in the n-state ones.
        inputs = (0.3 - 0.4j, (1 + 0j, -1 + 0j), SplitterPlan(0.3))
        for ports in (port_contributions, detector_amplitudes):
            assert ports(*inputs, None) == ports(*inputs, (0.0, 0.0)) == ports(*inputs)


class TestNStateAmplitudes:
    def test_matches_two_state_plan_at_half(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            unknown, a1, a2 = (random_state(rng) for _ in range(3))
            two = tuple(map(intensity, detector_amplitudes(unknown, (a1, a2), SplitterPlan(0.5))))
            gen = tuple(map(intensity, detector_amplitudes(unknown, (a1, a2), NStatePlan(2))))
            assert gen == pytest.approx(two, rel=1e-12, abs=1e-15)

    def test_closed_form_all_n(self):
        rng = np.random.default_rng(36)
        for n in range(2, 7):
            plan = NStatePlan(n)
            programs = tuple(random_state(rng) for _ in range(n))
            unknown = random_state(rng)
            d = detector_amplitudes(unknown, programs, plan)
            for j in range(n):
                want = intensity(programs[j] - unknown) / (n + 1)
                assert intensity(d[j]) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_null_when_unknown_matches(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 5):
            plan = NStatePlan(n)
            programs = tuple(random_state(rng) for _ in range(n))
            for k in range(n):
                d = detector_amplitudes(programs[k], programs, plan)
                assert abs(d[k]) < 1e-12

    def test_all_ports_dark_for_identical_programs(self):
        alpha = 0.4 - 0.9j
        d = detector_amplitudes(alpha, (alpha,) * 3, NStatePlan(3))
        assert all(abs(x) < 1e-12 for x in d)

    def test_wrong_program_count_rejected(self):
        with pytest.raises(ValueError):
            detector_amplitudes(1 + 0j, (1 + 0j,) * 3, NStatePlan(2))
        with pytest.raises(ValueError):
            NStatePlan(1)


class TestClassify:
    def test_two_state_truth_table(self):
        # click at D1 -> state 2 remains; click at D2 -> state 1 remains;
        # none or both -> inconclusive.
        assert classify((False, False)) == (0, 1)
        assert classify((True, False)) == (1,)
        assert classify((False, True)) == (0,)
        assert classify((True, True)) == ()

    def test_two_state_outcomes(self):
        out = outcome_from_clicks((True, False), true_index=1)
        assert out.kind is OutcomeKind.CORRECT and out.reported == 1
        out = outcome_from_clicks((True, False), true_index=0)
        assert out.kind is OutcomeKind.ERRONEOUS and out.reported == 1
        assert outcome_from_clicks((False, False), 0).kind is OutcomeKind.NO_CLICK
        assert outcome_from_clicks((True, True), 0).kind is OutcomeKind.MULTI_CLICK

    def test_three_state_pair_click_identifies_the_third(self):
        out = outcome_from_clicks((True, True, False), true_index=2)
        assert out.kind is OutcomeKind.CORRECT
        assert out.reported == 2

    def test_exclusion_logic_exhaustive(self):
        # Conclusive exactly when the pattern excludes all but one
        # hypothesis; the survivor must be the unclicked detector.
        for n in range(2, 6):
            for pattern in itertools.product((False, True), repeat=n):
                survivors = classify(pattern)
                assert survivors == tuple(j for j in range(n) if not pattern[j])
                out = outcome_from_clicks(pattern, true_index=0)
                if sum(pattern) == 0:
                    assert out.kind is OutcomeKind.NO_CLICK
                elif sum(pattern) == n - 1:
                    assert out.kind.conclusive
                    assert out.reported == survivors[0]
                else:
                    assert out.kind is OutcomeKind.MULTI_CLICK
