"""Unit tests for :mod:`repro.baselines.common`, and for the retired
itinerary type kept as the one-to-one parity oracle
(``tests/_legacy_baselines.py``)."""

import pytest

from repro.baselines.common import default_lifetimes, one_to_one_schedule
from repro.core.context import PlanningContext
from repro.core.validation import validate_schedule
from repro.energy.charging import ChargerSpec
from repro.geometry.point import Point
from repro.network.nodes import BaseStation, Depot
from repro.network.sensor import Sensor
from repro.network.topology import WRSN, random_wrsn
from repro.energy.battery import Battery
from tests._legacy_baselines import BaselineSchedule, Visit, build_itinerary


def _line_network(second=Point(0, 20)):
    """Two sensors at (10, 0) and ``second``, charge times 100 s and
    50 s at 1 W, depot at the origin."""
    sensors = [
        Sensor(id=1, position=Point(10, 0),
               battery=Battery(capacity_j=1_000.0, level_j=900.0)),
        Sensor(id=2, position=second,
               battery=Battery(capacity_j=1_000.0, level_j=950.0)),
    ]
    return WRSN(
        sensors=sensors,
        base_station=BaseStation(position=Point(0, 0)),
        depot=Depot(position=Point(0, 0)),
    )


class TestOneToOneSchedule:
    SPEC = ChargerSpec(travel_speed_mps=1.0, charge_rate_w=1.0)

    def make(self, sequences, second=Point(0, 20)):
        net = _line_network(second)
        context = PlanningContext(net, [1, 2], self.SPEC)
        return one_to_one_schedule(context, [1, 2], self.SPEC, 2, sequences)

    def test_each_stop_charges_its_own_sensor(self):
        sched = self.make([[1], [2]])
        assert sched.charges == {1: frozenset({1}), 2: frozenset({2})}
        assert sched.duration == {1: pytest.approx(100.0),
                                  2: pytest.approx(50.0)}

    def test_clock_accumulation(self):
        sched = self.make([[1, 2], []])
        assert sched.arrival[1] == pytest.approx(10.0)
        assert sched.finish[1] == pytest.approx(110.0)
        assert sched.arrival[2] == pytest.approx(110.0 + 500 ** 0.5)
        assert sched.tour_delay(1) == 0.0

    def test_tour_delay_includes_return(self):
        sched = self.make([[1], [2]])
        assert sched.tour_delay(0) == pytest.approx(120.0)
        assert sched.tour_delay(1) == pytest.approx(90.0)
        assert sched.sensor_finish_times() == {
            1: pytest.approx(110.0), 2: pytest.approx(70.0)
        }

    def test_empty_and_appended_later(self):
        sched = self.make([])
        assert sched.longest_delay() == 0.0
        sched.append_stop(1, 2)
        assert sched.finish[2] == pytest.approx(70.0)

    def test_neighbouring_stops_never_conflict(self):
        # Both sensors inside one charging disk, charged at the same
        # time by two vehicles: each stop charges only its own sensor.
        sched = self.make([[1], [2]], second=Point(10, 1))
        assert self.SPEC.charge_radius_m > 1.0
        start_1, finish_1 = sched.stop_interval(1)
        start_2, finish_2 = sched.stop_interval(2)
        assert max(start_1, start_2) < min(finish_1, finish_2)
        assert validate_schedule(sched, [1, 2]) == []


class TestVisit:
    def test_duration(self):
        v = Visit(sensor_id=1, arrival_s=10.0, finish_s=35.0)
        assert v.duration_s == 25.0


class TestBuildItinerary:
    def test_clock_accumulation(self):
        positions = {1: Point(10, 0), 2: Point(20, 0)}
        spec = ChargerSpec(travel_speed_mps=1.0)
        charge_times = {1: 100.0, 2: 50.0}
        visits = build_itinerary(
            [1, 2], positions, Point(0, 0), spec, charge_times
        )
        assert visits[0].arrival_s == pytest.approx(10.0)
        assert visits[0].finish_s == pytest.approx(110.0)
        assert visits[1].arrival_s == pytest.approx(120.0)
        assert visits[1].finish_s == pytest.approx(170.0)

    def test_start_time_offset(self):
        positions = {1: Point(5, 0)}
        spec = ChargerSpec()
        visits = build_itinerary(
            [1], positions, Point(0, 0), spec, {1: 10.0}, start_time_s=100.0
        )
        assert visits[0].arrival_s == pytest.approx(105.0)

    def test_empty(self):
        assert build_itinerary([], {}, Point(0, 0), ChargerSpec(), {}) == []


class TestBaselineSchedule:
    def make(self):
        positions = {1: Point(10, 0), 2: Point(0, 20)}
        spec = ChargerSpec(travel_speed_mps=1.0)
        itineraries = [
            [Visit(sensor_id=1, arrival_s=10.0, finish_s=60.0)],
            [Visit(sensor_id=2, arrival_s=20.0, finish_s=30.0)],
        ]
        return BaselineSchedule(Point(0, 0), positions, spec, itineraries)

    def test_tour_delay_includes_return(self):
        sched = self.make()
        assert sched.tour_delay(0) == pytest.approx(70.0)
        assert sched.tour_delay(1) == pytest.approx(50.0)

    def test_longest_delay(self):
        assert self.make().longest_delay() == pytest.approx(70.0)

    def test_empty_tour(self):
        sched = BaselineSchedule(
            Point(0, 0), {}, ChargerSpec(), [[], []]
        )
        assert sched.longest_delay() == 0.0
        assert sched.tour_delay(0) == 0.0

    def test_sensor_finish_times(self):
        done = self.make().sensor_finish_times()
        assert done == {1: 60.0, 2: 30.0}

    def test_visited_sensors(self):
        assert sorted(self.make().visited_sensors()) == [1, 2]


class TestHelpers:
    def test_charge_times_for_requests(self):
        net = random_wrsn(num_sensors=5, seed=1)
        net.set_residuals({0: 10_800.0 - 2_000.0})
        spec = ChargerSpec(charge_rate_w=2.0)
        times = PlanningContext(net, [0], spec).charge_times_for([0])
        assert times[0] == pytest.approx(1_000.0)

    def test_default_lifetimes_passthrough(self):
        net = random_wrsn(num_sensors=3, seed=1)
        life = default_lifetimes(net, [0, 1], {0: 5.0, 1: 6.0, 2: 9.0})
        assert life == {0: 5.0, 1: 6.0}

    def test_default_lifetimes_fallback_ordering(self):
        """With equal rates, lower residual energy means shorter
        fallback lifetime."""
        net = random_wrsn(num_sensors=2, seed=1, b_min_bps=1000.0,
                          b_max_bps=1000.0)
        net.set_residuals({0: 100.0, 1: 5_000.0})
        life = default_lifetimes(net, [0, 1], None)
        assert life[0] < life[1]
