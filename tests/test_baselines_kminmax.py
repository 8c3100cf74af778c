"""Unit tests for :mod:`repro.baselines.kminmax_baseline`."""

import pytest

from repro.baselines.kminmax_baseline import kminmax_baseline_schedule
from repro.network.topology import random_wrsn


class TestKminmaxBaseline:
    def test_all_requests_served_once(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        sched = kminmax_baseline_schedule(depleted_net, requests, 2)
        visited = sched.scheduled_stops()
        assert sorted(visited) == sorted(requests)
        assert len(visited) == len(set(visited))

    def test_invalid_k(self, depleted_net):
        with pytest.raises(ValueError):
            kminmax_baseline_schedule(depleted_net, [0], num_chargers=0)

    def test_empty_requests(self, depleted_net):
        sched = kminmax_baseline_schedule(depleted_net, [], 2)
        assert sched.longest_delay() == 0.0

    def test_minmax_balances_better_than_single_tour(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        single = kminmax_baseline_schedule(depleted_net, requests, 1)
        double = kminmax_baseline_schedule(depleted_net, requests, 2)
        assert double.longest_delay() < single.longest_delay()

    def test_balanced_loads(self, medium_depleted_net):
        """For K=2 on a uniform instance the two tour delays should be
        within ~35% of each other (tour splitting balances charge
        load)."""
        requests = medium_depleted_net.all_sensor_ids()
        sched = kminmax_baseline_schedule(medium_depleted_net, requests, 2)
        delays = sorted(sched.tour_delays())
        assert delays[0] > 0
        assert delays[1] / delays[0] < 1.35

    def test_large_instance_uses_fast_path(self, medium_depleted_net):
        """Requests above the Christofides cap must still be scheduled
        (the method falls back internally)."""
        requests = medium_depleted_net.all_sensor_ids()
        sched = kminmax_baseline_schedule(
            medium_depleted_net, requests, 2, tsp_method="christofides"
        )
        assert sorted(sched.scheduled_stops()) == sorted(requests)

    def test_double_mst_path_bytes_pinned(self):
        """600 requests take the double-MST walk; its longest delay is
        pinned to the bits the networkx preorder walk produced."""
        net = random_wrsn(600, seed=5, initial_fraction=0.15)
        sched = kminmax_baseline_schedule(net, net.all_sensor_ids(), 2)
        assert sched.longest_delay().hex() == "0x1.50701a5b79ecdp+20"
