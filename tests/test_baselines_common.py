"""Unit tests for :mod:`repro.baselines.common`."""

import pytest

from repro.baselines.common import (
    BaselineSchedule,
    Visit,
    build_itinerary,
    default_lifetimes,
)
from repro.core.context import PlanningContext
from repro.energy.charging import ChargerSpec
from repro.geometry.point import Point
from repro.network.topology import random_wrsn


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
