"""Tests for fault plans and schedules (``repro.faults.plan``).

A plan is a pure value; a schedule is a stateless oracle over it.  The
contract under test: validation rejects malformed plans, and every
decision depends only on the plan and the event's identity — never on
query order or process state.
"""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import FaultInjectionError
from repro.faults import FaultPlan, FaultSchedule


class TestFaultPlanValidation:
    @pytest.mark.parametrize(
        "field", ["drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"]
    )
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rates_must_lie_in_unit_interval(self, field, bad):
        with pytest.raises(FaultInjectionError, match=field):
            FaultPlan(**{field: bad})

    def test_rate_endpoints_are_legal(self):
        FaultPlan(drop_rate=0.0, duplicate_rate=1.0)

    def test_crash_rounds_are_one_based(self):
        with pytest.raises(FaultInjectionError, match="crash round"):
            FaultPlan(crashes=((0, 0),))

    def test_window_must_be_ordered(self):
        with pytest.raises(FaultInjectionError, match="last_round"):
            FaultPlan(first_round=5, last_round=2)
        with pytest.raises(FaultInjectionError, match="first_round"):
            FaultPlan(first_round=0)

    def test_crash_round_lookup(self):
        schedule = FaultSchedule(FaultPlan(crashes=((3, 4), ("v", 2))))
        assert not schedule.crashed(3, 3) and schedule.crashed(3, 4)
        assert not schedule.crashed("v", 1) and schedule.crashed("v", 2)
        assert not schedule.crashed(99, 100)


class TestFaultPlanValueSemantics:
    def test_equal_fields_mean_equal_plans(self):
        assert FaultPlan(plan_seed=7, drop_rate=0.1) == FaultPlan(
            plan_seed=7, drop_rate=0.1
        )
        assert hash(FaultPlan(plan_seed=7)) == hash(FaultPlan(plan_seed=7))

    def test_plans_pickle(self):
        plan = FaultPlan(plan_seed=9, drop_rate=0.3, crashes=((1, 2),))
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestFaultSchedule:
    def test_decisions_are_repeatable_and_order_free(self):
        schedule = FaultSchedule(FaultPlan(plan_seed=5, drop_rate=0.3))
        first = [schedule.drops(r, "u", "v") for r in range(1, 50)]
        second = [schedule.drops(r, "u", "v") for r in reversed(range(1, 50))]
        assert first == list(reversed(second))
        assert any(first) and not all(first)

    def test_two_schedules_of_the_same_plan_agree(self):
        plan = FaultPlan(plan_seed=5, drop_rate=0.3, corrupt_rate=0.2)
        a, b = FaultSchedule(plan), FaultSchedule(plan)
        assert all(
            a.drops(r, 0, 1) == b.drops(r, 0, 1)
            and a.flips(0, r) == b.flips(0, r)
            for r in range(1, 100)
        )

    def test_plan_seed_changes_the_decisions(self):
        base = FaultSchedule(FaultPlan(plan_seed=0, drop_rate=0.5))
        other = FaultSchedule(FaultPlan(plan_seed=1, drop_rate=0.5))
        draws = [
            (base.drops(r, "u", "v"), other.drops(r, "u", "v"))
            for r in range(1, 100)
        ]
        assert any(a != b for a, b in draws)

    def test_zero_rate_never_fires_and_one_always_does(self):
        silent = FaultSchedule(FaultPlan(plan_seed=3))
        loud = FaultSchedule(
            FaultPlan(plan_seed=3, drop_rate=1.0, duplicate_rate=1.0)
        )
        for r in range(1, 30):
            assert not silent.drops(r, 0, 1)
            assert not silent.duplicates(r, 0, 1)
            assert not silent.flips(0, r)
            assert silent.reorder_permutation(r, 0, 4) is None
            assert loud.drops(r, 0, 1)
            assert loud.duplicates(r, 0, 1)

    def test_window_gates_rate_faults_but_not_crashes(self):
        schedule = FaultSchedule(
            FaultPlan(
                plan_seed=1,
                drop_rate=1.0,
                first_round=3,
                last_round=5,
                crashes=((7, 1),),
            )
        )
        assert [schedule.drops(r, 0, 1) for r in range(1, 8)] == [
            False, False, True, True, True, False, False,
        ]
        assert schedule.crashed(7, 1) and schedule.crashed(7, 6)

    def test_crashed_is_monotone_from_the_crash_round(self):
        schedule = FaultSchedule(FaultPlan(crashes=((2, 3),)))
        assert [schedule.crashed(2, r) for r in (1, 2, 3, 4)] == [
            False, False, True, True,
        ]
        assert not schedule.crashed(0, 99)

    def test_reorder_permutation_is_a_real_permutation(self):
        schedule = FaultSchedule(FaultPlan(plan_seed=2, reorder_rate=1.0))
        seen_nontrivial = False
        for r in range(1, 30):
            perm = schedule.reorder_permutation(r, "v", 5)
            if perm is None:
                continue  # identity draws are reported as None
            assert sorted(perm) == list(range(5))
            assert perm != list(range(5))
            seen_nontrivial = True
        assert seen_nontrivial

    def test_reorder_needs_degree_two(self):
        schedule = FaultSchedule(FaultPlan(plan_seed=2, reorder_rate=1.0))
        assert schedule.reorder_permutation(1, "v", 1) is None

    def test_drop_decisions_are_per_directed_edge(self):
        schedule = FaultSchedule(FaultPlan(plan_seed=11, drop_rate=0.5))
        forward = [schedule.drops(r, "u", "v") for r in range(1, 60)]
        backward = [schedule.drops(r, "v", "u") for r in range(1, 60)]
        assert forward != backward
