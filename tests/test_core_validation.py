"""Unit tests for :mod:`repro.core.validation`."""

import pytest

from repro.core import conflicts
from repro.core.conflicts import (
    OVERLAP_EPS,
    conflicting_pairs,
    resolve_conflicts,
)
from repro.core.schedule import ChargingSchedule
from repro.core.validation import validate_schedule
from repro.energy.charging import ChargerSpec
from repro.geometry.point import Point


def overlapping_fixture():
    """Two candidates (1 and 2) whose disks share sensor 9; scheduling
    them on different tours at the same time must be flagged."""
    positions = {1: Point(10, 0), 2: Point(14, 0), 9: Point(12, 0)}
    coverage = {
        1: frozenset({1, 9}),
        2: frozenset({2, 9}),
    }
    charge_times = {1: 500.0, 2: 500.0, 9: 500.0}
    return ChargingSchedule(
        depot=Point(0, 0),
        positions=positions,
        coverage=coverage,
        charge_times=charge_times,
        charger=ChargerSpec(),
        num_tours=2,
    )


class TestConflictDetection:
    def test_cross_tour_overlap_detected(self):
        sched = overlapping_fixture()
        sched.append_stop(0, 1)
        sched.append_stop(1, 2)
        pairs = conflicting_pairs(sched)
        assert len(pairs) == 1
        u, v, overlap = pairs[0]
        assert {u, v} == {1, 2}
        assert overlap > 0

    def test_same_tour_never_conflicts(self):
        sched = overlapping_fixture()
        sched.append_stop(0, 1)
        sched.append_stop(0, 2)
        assert conflicting_pairs(sched) == []

    def test_disjoint_disks_never_conflict(self):
        sched = overlapping_fixture()
        sched.coverage[2] = frozenset({2})
        sched.append_stop(0, 1)
        sched.append_stop(1, 2)
        assert conflicting_pairs(sched) == []

    def test_non_overlapping_intervals_ok(self):
        sched = overlapping_fixture()
        sched.append_stop(0, 1)
        sched.append_stop(1, 2)
        # Move stop 2's charging past stop 1's finish.
        sched.add_wait(2, sched.finish[1])
        assert conflicting_pairs(sched) == []


class TestValidateSchedule:
    def test_feasible_empty(self):
        sched = overlapping_fixture()
        assert validate_schedule(sched, required_sensors=[]) == []

    def test_coverage_violation(self):
        sched = overlapping_fixture()
        violations = validate_schedule(sched, required_sensors=[9])
        assert any(v.kind == "coverage" for v in violations)

    def test_overlap_violation_reported(self):
        sched = overlapping_fixture()
        sched.append_stop(0, 1)
        sched.append_stop(1, 2)
        violations = validate_schedule(sched, required_sensors=[1, 2, 9])
        kinds = {v.kind for v in violations}
        assert "overlap" in kinds
        assert "coverage" not in kinds

    def test_disjointness_violation(self):
        sched = overlapping_fixture()
        sched.append_stop(0, 1)
        # Bypass the API to corrupt the tours.
        sched.tours[1].append(1)
        violations = validate_schedule(sched, required_sensors=[])
        assert any(v.kind == "disjointness" for v in violations)


class TestResolveConflicts:
    def test_repairs_overlap(self):
        sched = overlapping_fixture()
        sched.append_stop(0, 1)
        sched.append_stop(1, 2)
        waits = resolve_conflicts(sched)
        assert waits >= 1
        assert conflicting_pairs(sched) == []

    def test_noop_when_feasible(self):
        sched = overlapping_fixture()
        sched.append_stop(0, 1)
        assert resolve_conflicts(sched) == 0

    def test_waits_increase_delay_but_keep_coverage(self):
        sched = overlapping_fixture()
        sched.append_stop(0, 1)
        sched.append_stop(1, 2)
        before = sched.longest_delay()
        resolve_conflicts(sched)
        assert sched.longest_delay() >= before
        assert sched.covered_sensors() == {1, 2, 9}


class TestOverlapEpsBoundary:
    """Interval overlaps around the ``OVERLAP_EPS`` touching rule."""

    def _two_stop_sched(self):
        sched = overlapping_fixture()
        sched.append_stop(0, 1)
        sched.append_stop(1, 2)
        return sched

    def test_overlap_below_eps_is_touching(self):
        sched = self._two_stop_sched()
        # Delay stop 2 so its charging starts eps/2 before stop 1
        # finishes: the remaining overlap is below the threshold and
        # must be treated as touching, not conflicting.
        target_start = sched.finish[1] - OVERLAP_EPS / 2
        sched.add_wait(2, target_start - sched.arrival[2])
        assert conflicting_pairs(sched) == []

    def test_overlap_above_eps_is_a_conflict(self):
        sched = self._two_stop_sched()
        target_start = sched.finish[1] - 1000 * OVERLAP_EPS
        sched.add_wait(2, target_start - sched.arrival[2])
        pairs = conflicting_pairs(sched)
        assert len(pairs) == 1
        assert pairs[0][2] == pytest.approx(1000 * OVERLAP_EPS, rel=1e-3)

    def test_zero_length_interval_never_conflicts(self):
        """A fully-covered stop charges for 0 s; a point interval
        inside another stop's interval has zero overlap length."""
        positions = {1: Point(10, 0), 2: Point(14, 0), 9: Point(12, 0)}
        coverage = {
            1: frozenset({1, 9}),
            2: frozenset({9}),  # only the already-claimed sensor
        }
        charge_times = {1: 500.0, 2: 500.0, 9: 500.0}
        sched = ChargingSchedule(
            depot=Point(0, 0),
            positions=positions,
            coverage=coverage,
            charge_times=charge_times,
            charger=ChargerSpec(),
            num_tours=2,
        )
        sched.append_stop(0, 1)
        sched.append_stop(1, 2)
        assert sched.duration[2] == pytest.approx(0.0)
        # Plant the zero-length interval strictly inside stop 1's.
        start_1, finish_1 = sched.stop_interval(1)
        midpoint = (start_1 + finish_1) / 2
        sched.add_wait(2, midpoint - sched.arrival[2])
        assert conflicting_pairs(sched) == []
        assert validate_schedule(sched, required_sensors=[1, 9]) == []


class TestSameTourRepeatedStops:
    def test_repeat_on_same_tour_is_disjointness_violation(self):
        sched = overlapping_fixture()
        sched.append_stop(0, 1)
        # Corrupt the tour bypassing the API: node 1 appears twice on
        # tour 0 (the validator, not the builder, must catch this).
        sched.tours[0].append(1)
        violations = validate_schedule(sched, required_sensors=[])
        kinds = [v.kind for v in violations]
        assert "disjointness" in kinds
        offender = next(v for v in violations if v.kind == "disjointness")
        assert offender.nodes == (1,)

    def test_intra_tour_duplicate_has_its_own_message(self):
        """Regression: the detail used to read "appears on tours 2 and
        2" for an intra-tour duplicate."""
        sched = overlapping_fixture()
        sched.append_stop(1, 1)
        sched.tours[1].append(1)
        violations = validate_schedule(sched, required_sensors=[])
        offender = next(v for v in violations if v.kind == "disjointness")
        assert offender.detail == "stop 1 appears twice on tour 1"

    def test_cross_tour_duplicate_names_both_tours(self):
        sched = overlapping_fixture()
        sched.append_stop(0, 1)
        sched.tours[1].append(1)
        violations = validate_schedule(sched, required_sensors=[])
        offender = next(v for v in violations if v.kind == "disjointness")
        assert offender.detail == "stop 1 appears on tours 0 and 1"

    def test_append_stop_refuses_repeat(self):
        sched = overlapping_fixture()
        sched.append_stop(0, 1)
        with pytest.raises(ValueError, match="already scheduled"):
            sched.append_stop(0, 1)


def three_cycle_fixture():
    """Three stops on three tours with pairwise-intersecting disks,
    all charging at roughly the same time: a 3-cycle of conflicts."""
    positions = {
        1: Point(10.0, 0.0),
        2: Point(10.5, 0.0),
        3: Point(10.25, 0.5),
        7: Point(10.25, 0.0),
        8: Point(10.4, 0.25),
        9: Point(10.1, 0.25),
    }
    coverage = {
        1: frozenset({1, 7, 9}),
        2: frozenset({2, 7, 8}),
        3: frozenset({3, 8, 9}),
    }
    charge_times = {sid: 400.0 for sid in positions}
    sched = ChargingSchedule(
        depot=Point(0, 0),
        positions=positions,
        coverage=coverage,
        charge_times=charge_times,
        charger=ChargerSpec(),
        num_tours=3,
    )
    sched.append_stop(0, 1)
    sched.append_stop(1, 2)
    sched.append_stop(2, 3)
    return sched


class TestResolveConflictsThreeCycle:
    def test_cycle_is_fully_conflicting_initially(self):
        sched = three_cycle_fixture()
        pairs = {frozenset((u, v)) for u, v, _ in conflicting_pairs(sched)}
        assert pairs == {
            frozenset((1, 2)),
            frozenset((1, 3)),
            frozenset((2, 3)),
        }

    def test_reaches_fixed_point(self):
        sched = three_cycle_fixture()
        waits = resolve_conflicts(sched)
        assert waits >= 2  # at least two stops must be pushed back
        assert conflicting_pairs(sched) == []
        # Fixed point: a second pass is a no-op.
        assert resolve_conflicts(sched) == 0

    def test_serialized_intervals_are_pairwise_disjoint(self):
        sched = three_cycle_fixture()
        resolve_conflicts(sched)
        intervals = sorted(sched.stop_interval(n) for n in (1, 2, 3))
        for (_, f_prev), (s_next, _) in zip(intervals, intervals[1:]):
            assert s_next >= f_prev - 1e-9

    def test_coverage_preserved_by_repair(self):
        sched = three_cycle_fixture()
        before = sched.covered_sensors()
        resolve_conflicts(sched)
        assert sched.covered_sensors() == before
        assert validate_schedule(sched, required_sensors=sorted(before)) == []

    def test_round_limit_raises(self, monkeypatch):
        monkeypatch.setattr(conflicts, "MAX_WAIT_ROUNDS", 0)
        sched = three_cycle_fixture()
        with pytest.raises(RuntimeError, match="did not converge in 0"):
            resolve_conflicts(sched)

    @pytest.mark.parametrize("frozen_before_s", [None, -1.0])
    def test_cap_met_by_the_last_round_does_not_raise(
        self, monkeypatch, frozen_before_s
    ):
        # The loop raises only when conflicts remain after the last
        # round, with or without a frozen boundary.
        waits = resolve_conflicts(three_cycle_fixture())
        monkeypatch.setattr(conflicts, "MAX_WAIT_ROUNDS", waits)
        sched = three_cycle_fixture()
        assert resolve_conflicts(
            sched, frozen_before_s=frozen_before_s
        ) == waits
        assert conflicting_pairs(sched) == []
