"""Unit tests for the fault-injection plan layer."""

import math

import pytest

from repro.serving.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    admission_blackout,
    brownout,
    crash_and_recover,
    crash_forever,
    generate_fault_plan,
)

pytestmark = pytest.mark.cluster


class TestFaultEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            FaultEvent(-0.1, 0, FaultKind.CRASH)

    def test_negative_replica_rejected(self):
        with pytest.raises(ValueError, match="replica"):
            FaultEvent(0.0, -1, FaultKind.CRASH)

    def test_brownout_needs_slowdown_factor(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(0.0, 0, FaultKind.BROWNOUT, factor=0.5)
        FaultEvent(0.0, 0, FaultKind.BROWNOUT, factor=2.0)

    @pytest.mark.parametrize("time_s", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, time_s):
        """A NaN crash time reported NaN downtime."""
        with pytest.raises(ValueError, match="time"):
            FaultEvent(time_s, 0, FaultKind.CRASH)

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_non_finite_brownout_factor_rejected(self, factor):
        """A NaN or infinite factor hung the cluster replay."""
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(0.0, 0, FaultKind.BROWNOUT, factor=factor)
        FaultEvent(0.0, 0, FaultKind.BROWNOUT_END, factor=factor)


class TestFaultPlan:
    def test_events_sorted_on_construction(self):
        plan = FaultPlan(
            crash_and_recover(1, 5.0, 1.0) + crash_and_recover(0, 1.0, 2.0)
        )
        times = [e.time_s for e in plan.events]
        assert times == sorted(times)

    def test_enabled(self):
        assert not FaultPlan([]).enabled
        assert FaultPlan(crash_forever(0, 1.0)).enabled

    def test_validate_rejects_out_of_range_replica(self):
        plan = FaultPlan(crash_forever(3, 1.0))
        with pytest.raises(ValueError, match="replica 3"):
            plan.validate(replicas=2)

    def test_validate_rejects_recover_without_crash(self):
        plan = FaultPlan([FaultEvent(1.0, 0, FaultKind.RECOVER)])
        with pytest.raises(ValueError, match="without a matching"):
            plan.validate(replicas=1)

    def test_validate_rejects_double_crash(self):
        plan = FaultPlan(
            [
                FaultEvent(1.0, 0, FaultKind.CRASH),
                FaultEvent(2.0, 0, FaultKind.CRASH),
            ]
        )
        with pytest.raises(ValueError, match="still open"):
            plan.validate(replicas=1)

    def test_crash_forever_is_valid(self):
        FaultPlan(crash_forever(0, 1.0)).validate(replicas=1)

    def test_for_replica_filters(self):
        plan = FaultPlan(
            crash_and_recover(0, 1.0, 1.0) + brownout(1, 2.0, 1.0)
        )
        assert all(e.replica == 1 for e in plan.for_replica(1))
        assert len(plan.for_replica(0)) == 2


class TestWindowHelpers:
    def test_crash_and_recover_pairs(self):
        crash, recover = crash_and_recover(2, 1.5, 0.5)
        assert crash.kind is FaultKind.CRASH
        assert recover.kind is FaultKind.RECOVER
        assert recover.time_s == pytest.approx(2.0)

    def test_nonpositive_windows_rejected(self):
        with pytest.raises(ValueError):
            crash_and_recover(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            brownout(0, 1.0, -1.0)
        with pytest.raises(ValueError):
            admission_blackout(0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_windows_rejected(self, bad):
        """Every helper builds through :class:`FaultEvent`, which
        checks each time and factor."""
        for make in (
            lambda: crash_and_recover(0, 1.0, bad),
            lambda: crash_and_recover(0, bad, 1.0),
            lambda: crash_forever(0, bad),
            lambda: brownout(0, 1.0, 4.0, factor=bad),
            lambda: brownout(0, 1.0, bad),
            lambda: admission_blackout(0, bad, 1.0),
        ):
            with pytest.raises(ValueError):
                make()


class TestGeneratePlan:
    def test_seeded_plans_identical(self):
        a = generate_fault_plan(4, 20.0, seed=11)
        b = generate_fault_plan(4, 20.0, seed=11)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = generate_fault_plan(4, 50.0, seed=1, crash_rate=0.2)
        b = generate_fault_plan(4, 50.0, seed=2, crash_rate=0.2)
        assert a.events != b.events

    def test_generated_plan_validates(self):
        plan = generate_fault_plan(
            3, 30.0, seed=5, crash_rate=0.2, brownout_rate=0.2,
            reject_rate=0.2,
        )
        plan.validate(replicas=3)
        assert plan.enabled

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            generate_fault_plan(0, 10.0)
        with pytest.raises(ValueError):
            generate_fault_plan(2, 0.0)
