"""Unit tests for :mod:`repro.baselines.netwrap`."""

import pytest

from repro.baselines.netwrap import netwrap_schedule


class TestNetwrap:
    def test_all_requests_served_once(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        sched = netwrap_schedule(depleted_net, requests, num_chargers=2)
        visited = sched.scheduled_stops()
        assert sorted(visited) == sorted(requests)
        assert len(visited) == len(set(visited))

    def test_invalid_args(self, depleted_net):
        with pytest.raises(ValueError):
            netwrap_schedule(depleted_net, [0], num_chargers=0)
        with pytest.raises(ValueError):
            netwrap_schedule(depleted_net, [0], 1, travel_weight=1.5)

    def test_empty_requests(self, depleted_net):
        sched = netwrap_schedule(depleted_net, [], num_chargers=2)
        assert sched.longest_delay() == 0.0

    def test_pure_travel_weight_is_greedy_nearest(self, depleted_net):
        """With travel_weight=1 the first selection of the first free
        vehicle is the sensor nearest the depot."""
        requests = depleted_net.all_sensor_ids()
        sched = netwrap_schedule(
            depleted_net, requests, num_chargers=1, travel_weight=1.0
        )
        first = sched.tours[0][0]
        depot = depleted_net.depot.position
        nearest = min(
            requests, key=lambda sid: depot.distance_to(
                depleted_net.position_of(sid)
            )
        )
        assert first == nearest

    def test_pure_lifetime_weight_is_edf(self, depleted_net):
        """With travel_weight=0 selection order is ascending lifetime."""
        requests = depleted_net.all_sensor_ids()[:5]
        lifetimes = {sid: float(i * 100) for i, sid in enumerate(requests)}
        sched = netwrap_schedule(
            depleted_net, requests, num_chargers=1, lifetimes=lifetimes,
            travel_weight=0.0,
        )
        order = sched.tours[0]
        assert order == requests

    def test_visits_time_consistent(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        sched = netwrap_schedule(depleted_net, requests, num_chargers=3)
        for tour in sched.tours:
            clock = 0.0
            for sid in tour:
                assert sched.arrival[sid] >= clock - 1e-9
                assert sched.finish[sid] >= sched.arrival[sid]
                clock = sched.finish[sid]
