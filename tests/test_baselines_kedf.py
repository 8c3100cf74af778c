"""Unit tests for :mod:`repro.baselines.kedf`."""

import pytest

from repro.baselines.kedf import kedf_schedule
from repro.energy.charging import ChargerSpec


class TestKedf:
    def test_all_requests_served(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        sched = kedf_schedule(depleted_net, requests, num_chargers=2)
        assert sorted(sched.scheduled_stops()) == sorted(requests)

    def test_each_sensor_once(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        sched = kedf_schedule(depleted_net, requests, num_chargers=3)
        visited = sched.scheduled_stops()
        assert len(visited) == len(set(visited))

    def test_invalid_k(self, depleted_net):
        with pytest.raises(ValueError):
            kedf_schedule(depleted_net, [0], num_chargers=0)

    def test_empty_requests(self, depleted_net):
        sched = kedf_schedule(depleted_net, [], num_chargers=2)
        assert sched.longest_delay() == 0.0

    def test_edf_order_respected_within_vehicle(self, depleted_net):
        """With explicit lifetimes, the most urgent sensors are charged
        in the first groups: every vehicle's visit sequence follows the
        group order (urgency-ascending blocks of K)."""
        requests = depleted_net.all_sensor_ids()[:6]
        lifetimes = {sid: float(i) for i, sid in enumerate(requests)}
        sched = kedf_schedule(
            depleted_net, requests, num_chargers=2, lifetimes=lifetimes
        )
        # Group g contains requests[2g], requests[2g+1]; each vehicle
        # sees one sensor per group, so its sequence of group indices
        # must be non-decreasing.
        group_of = {sid: i // 2 for i, sid in enumerate(requests)}
        for tour in sched.tours:
            groups = [group_of[sid] for sid in tour]
            assert groups == sorted(groups)

    def test_more_chargers_no_slower(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        d1 = kedf_schedule(depleted_net, requests, 1).longest_delay()
        d4 = kedf_schedule(depleted_net, requests, 4).longest_delay()
        assert d4 <= d1

    def test_charge_durations_match_deficit(self, depleted_net):
        spec = ChargerSpec()
        requests = depleted_net.all_sensor_ids()[:4]
        sched = kedf_schedule(depleted_net, requests, 2, charger=spec)
        for sid in sched.scheduled_stops():
            sensor = depleted_net.sensor(sid)
            expected = (
                sensor.capacity_j - sensor.residual_j
            ) / spec.charge_rate_w
            assert sched.duration[sid] == pytest.approx(expected)
            start, finish = sched.stop_interval(sid)
            assert finish - start == pytest.approx(expected)
