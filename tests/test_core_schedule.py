"""Unit tests for :mod:`repro.core.schedule`."""

import pytest

from repro.core.schedule import ChargingSchedule
from repro.energy.charging import ChargerSpec
from repro.geometry.point import Point


def make_schedule(num_tours=2):
    """A hand-built instance on a line.

    Sensors 0..5 at x = 0, 4, 8, 20, 24, 40; candidates 1 (x=4) covers
    {0..2}? No: radius 4.5 -> candidate 1 covers 0, 1, 2; candidate 4
    (x=24) covers 3, 4; candidate 5 (x=40) covers 5.
    """
    positions = {
        0: Point(0, 0),
        1: Point(4, 0),
        2: Point(8, 0),
        3: Point(20, 0),
        4: Point(24, 0),
        5: Point(40, 0),
    }
    coverage = {
        1: frozenset({0, 1, 2}),
        4: frozenset({3, 4}),
        5: frozenset({5}),
        2: frozenset({2, 3}),
    }
    charge_times = {0: 100.0, 1: 50.0, 2: 200.0, 3: 80.0, 4: 60.0, 5: 10.0}
    spec = ChargerSpec(travel_speed_mps=1.0)
    return ChargingSchedule(
        depot=Point(0, 0),
        positions=positions,
        coverage=coverage,
        charge_times=charge_times,
        charger=spec,
        num_tours=num_tours,
    )


class TestConstruction:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            ChargingSchedule(
                depot=Point(0, 0), positions={}, coverage={},
                charge_times={}, charger=ChargerSpec(), num_tours=0,
            )

    def test_initially_empty(self):
        sched = make_schedule()
        assert sched.scheduled_stops() == []
        assert sched.longest_delay() == 0.0
        assert sched.covered_sensors() == set()


class TestDurations:
    def test_upper_duration_is_max_in_disk(self):
        sched = make_schedule()
        assert sched.upper_duration(1) == 200.0  # max(t0, t1, t2)

    def test_residual_duration_excludes_covered(self):
        sched = make_schedule()
        sched.append_stop(0, 1)  # claims sensors 0, 1, 2
        # Candidate 2 covers {2, 3}; 2 already claimed -> residual is t3.
        assert sched.residual_duration(2) == 80.0

    def test_residual_duration_empty_disk(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        sched.append_stop(0, 4)  # claims 3, 4
        assert sched.residual_duration(2) == 0.0
        assert sched.fully_covered(2)


class TestAppendStop:
    def test_finish_time_recursion(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        # travel 4 s + duration 200 s.
        assert sched.arrival[1] == pytest.approx(4.0)
        assert sched.finish[1] == pytest.approx(204.0)

    def test_second_stop_accumulates(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        sched.append_stop(0, 4)
        # travel 4 + charge 200 + travel 20 + charge 80 (t3 max of {3,4}).
        assert sched.finish[4] == pytest.approx(4 + 200 + 20 + 80)

    def test_duplicate_rejected(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        with pytest.raises(ValueError):
            sched.append_stop(1, 1)

    def test_unknown_node_rejected(self):
        sched = make_schedule()
        with pytest.raises(ValueError):
            sched.append_stop(0, 99)

    def test_coverage_claim_first_wins(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        sched.append_stop(1, 2)
        assert sched.charged_by[2] == 1  # claimed by the earlier stop
        assert sched.charges[2] == frozenset({3})


class TestInsertStop:
    def test_insert_after_none_prepends(self):
        sched = make_schedule()
        sched.append_stop(0, 4)
        sched.insert_stop_after(0, None, 1)
        assert sched.tours[0] == [1, 4]

    def test_insert_recomputes_downstream(self):
        sched = make_schedule()
        sched.append_stop(0, 4)
        finish_before = sched.finish[4]
        sched.insert_stop_after(0, None, 1)
        assert sched.finish[4] > finish_before

    def test_anchor_tour_mismatch(self):
        sched = make_schedule()
        sched.append_stop(0, 4)
        with pytest.raises(ValueError):
            sched.insert_stop_after(1, 4, 1)


class TestRemoveReinsert:
    """``remove_stop``/``reinsert_stop`` resume the finish-time
    recursion at the changed index; the result must equal a recompute
    from the depot bit for bit."""

    @staticmethod
    def _long_schedule():
        import numpy as np

        rng = np.random.default_rng(3)
        ids = list(range(30))
        positions = {
            i: Point(*rng.uniform(0.0, 50.0, size=2)) for i in ids
        }
        sched = ChargingSchedule(
            depot=Point(25.0, 25.0),
            positions=positions,
            coverage={i: frozenset({i}) for i in ids},
            charge_times={i: float(rng.uniform(10.0, 500.0)) for i in ids},
            charger=ChargerSpec(travel_speed_mps=0.7),
            num_tours=2,
        )
        for i in ids:
            sched.append_stop(i % 2, i)
        for i in ids[::4]:
            sched.add_wait(i, float(rng.uniform(0.0, 90.0)))
        return sched

    @staticmethod
    def _assert_matches_full_recompute(sched):
        full = sched.copy()
        for k in range(full.num_tours):
            full.recompute_finish_times(k)
        assert full.arrival == sched.arrival
        assert full.finish == sched.finish

    @pytest.mark.parametrize("position", [0, 1, 7, 14])
    def test_remove_then_reinsert_everywhere(self, position):
        sched = self._long_schedule()
        node = sched.tours[0][position]
        sched.remove_stop(node)
        self._assert_matches_full_recompute(sched)
        for anchor in [None] + sched.tours[1]:
            sched.reinsert_stop(1, anchor, node)
            self._assert_matches_full_recompute(sched)
            sched.remove_stop(node)
            self._assert_matches_full_recompute(sched)

    def test_remove_with_release_recomputes_downstream(self):
        sched = self._long_schedule()
        node = sched.tours[1][3]
        after = sched.tours[1][4]
        before = sched.finish[after]
        sched.remove_stop(node, release_coverage=True)
        assert sched.finish[after] < before
        self._assert_matches_full_recompute(sched)


class TestDelays:
    def test_tour_delay_includes_return(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        # out 4 + charge 200 + back 4.
        assert sched.tour_delay(0) == pytest.approx(208.0)

    def test_longest_delay_is_max(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        sched.append_stop(1, 5)
        assert sched.longest_delay() == pytest.approx(
            max(sched.tour_delay(0), sched.tour_delay(1))
        )

    def test_empty_tour_zero_delay(self):
        sched = make_schedule()
        assert sched.tour_delay(1) == 0.0


class TestWaits:
    def test_add_wait_shifts_finish(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        sched.add_wait(1, 30.0)
        assert sched.finish[1] == pytest.approx(234.0)
        assert sched.stop_interval(1) == (
            pytest.approx(34.0),
            pytest.approx(234.0),
        )

    def test_wait_propagates_downstream(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        sched.append_stop(0, 4)
        before = sched.finish[4]
        sched.add_wait(1, 10.0)
        assert sched.finish[4] == pytest.approx(before + 10.0)

    def test_invalid_wait(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        with pytest.raises(ValueError):
            sched.add_wait(1, -1.0)
        with pytest.raises(ValueError):
            sched.add_wait(4, 1.0)


class TestReporting:
    def test_stops_snapshot(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        stops = sched.stops()
        assert len(stops) == 1
        stop = stops[0]
        assert stop.node == 1
        assert stop.tour == 0
        assert stop.charged == frozenset({0, 1, 2})
        assert stop.duration_s == 200.0

    def test_sensor_finish_times_individual(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        done = sched.sensor_finish_times()
        # Charging starts at t=4; sensor 1 (t=50) finishes at 54,
        # sensor 2 (t=200) at 204.
        assert done[1] == pytest.approx(54.0)
        assert done[2] == pytest.approx(204.0)

    def test_total_travel_and_charging(self):
        sched = make_schedule()
        sched.append_stop(0, 1)
        sched.append_stop(1, 5)
        assert sched.total_travel_time() == pytest.approx(8.0 + 80.0)
        assert sched.total_charging_time() == pytest.approx(200.0 + 10.0)
