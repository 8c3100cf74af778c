"""Unit and behavioural tests for :mod:`repro.sim.simulator`."""

import math

import pytest

from repro.energy.consumption import RadioModel
from repro.network.topology import random_wrsn
from repro.sim.simulator import (
    SECONDS_PER_YEAR,
    MonitoringSimulation,
    _SensorState,
)


class TestSensorState:
    def test_level_at_linear(self):
        state = _SensorState(capacity_j=100.0, level_j=100.0, draw_w=2.0)
        assert state.level_at(10.0) == pytest.approx(80.0)

    def test_level_clamps_at_zero(self):
        state = _SensorState(capacity_j=100.0, level_j=10.0, draw_w=2.0)
        assert state.level_at(100.0) == 0.0

    def test_death_time(self):
        state = _SensorState(capacity_j=100.0, level_j=50.0, draw_w=2.0)
        assert state.death_time() == pytest.approx(25.0)

    def test_death_time_zero_draw(self):
        state = _SensorState(capacity_j=100.0, level_j=50.0, draw_w=0.0)
        assert state.death_time() == math.inf

    def test_crossing_time(self):
        state = _SensorState(capacity_j=100.0, level_j=100.0, draw_w=2.0)
        assert state.crossing_time(20.0) == pytest.approx(40.0)

    def test_crossing_time_already_below(self):
        state = _SensorState(capacity_j=100.0, level_j=10.0, draw_w=2.0)
        assert state.crossing_time(20.0) == -math.inf

    def test_recharge(self):
        state = _SensorState(capacity_j=100.0, level_j=10.0, draw_w=1.0)
        state.recharge_full_at(50.0)
        assert state.level_at(50.0) == 100.0
        assert state.level_at(60.0) == pytest.approx(90.0)

    def test_advance_to(self):
        state = _SensorState(capacity_j=100.0, level_j=100.0, draw_w=1.0)
        state.advance_to(30.0)
        assert state.t_ref == 30.0
        assert state.level_j == pytest.approx(70.0)


class TestMonitoringSimulation:
    def test_invalid_args(self):
        net = random_wrsn(num_sensors=5, seed=1)
        with pytest.raises(ValueError):
            MonitoringSimulation(net, "Appro", num_chargers=0)
        with pytest.raises(ValueError):
            MonitoringSimulation(net, "Appro", 1, threshold=0.0)
        with pytest.raises(ValueError):
            MonitoringSimulation(net, "Appro", 1, horizon_s=-1.0)

    def test_network_not_mutated(self):
        net = random_wrsn(num_sensors=30, seed=2)
        levels_before = {s.id: s.residual_j for s in net.sensors()}
        sim = MonitoringSimulation(
            net, "K-EDF", num_chargers=1, horizon_s=10 * 86400.0
        )
        sim.run()
        assert {s.id: s.residual_j for s in net.sensors()} == levels_before

    def test_zero_load_network_never_schedules(self):
        net = random_wrsn(
            num_sensors=10, seed=3, b_min_bps=0.0, b_max_bps=0.0
        )
        sim = MonitoringSimulation(
            net, "Appro", num_chargers=1, horizon_s=30 * 86400.0,
            radio=RadioModel(idle_power_w=0.0),
        )
        metrics = sim.run()
        assert metrics.num_rounds == 0
        assert metrics.total_dead_time_s == 0.0

    @pytest.mark.parametrize("name", ["Appro", "K-EDF"])
    def test_short_run_produces_rounds(self, name):
        net = random_wrsn(num_sensors=60, seed=4)
        sim = MonitoringSimulation(
            net, name, num_chargers=2, horizon_s=30 * 86400.0
        )
        metrics = sim.run()
        assert metrics.num_rounds > 0
        assert metrics.horizon_s == 30 * 86400.0
        assert all(d > 0 for d in metrics.round_longest_delays_s)
        assert len(metrics.round_request_counts) == metrics.num_rounds

    def test_accepts_spec_name_and_callable(self):
        import functools

        from repro.pipeline import run_planner

        net = random_wrsn(num_sensors=20, seed=5)
        horizon = 5 * 86400.0
        by_name = MonitoringSimulation(
            net, "K-EDF", 1, horizon_s=horizon
        ).run()
        by_callable = MonitoringSimulation(
            net, functools.partial(run_planner, "K-EDF"), 1,
            horizon_s=horizon,
        ).run()
        assert by_name.num_rounds == by_callable.num_rounds
        assert (
            by_name.round_longest_delays_s
            == by_callable.round_longest_delays_s
        )

    def test_all_five_paper_algorithms_accepted(self):
        from repro.pipeline import planner_names

        paper = {"Appro", "K-EDF", "NETWRAP", "AA", "K-minMax"}
        assert set(planner_names(paper_only=True)) == paper
        net = random_wrsn(num_sensors=20, seed=5)
        for name in sorted(paper):
            MonitoringSimulation(net, name, 1)

    def test_unknown_name_rejected(self):
        net = random_wrsn(num_sensors=20, seed=5)
        with pytest.raises(KeyError, match="unknown planner"):
            MonitoringSimulation(net, "NotAPlanner", 1)

    def test_dead_time_zero_in_underloaded_network(self):
        """A tiny network with one charger keeps everyone alive:
        requests are served long before batteries empty."""
        net = random_wrsn(num_sensors=15, seed=6)
        metrics = MonitoringSimulation(
            net, "Appro", num_chargers=1, horizon_s=60 * 86400.0
        ).run()
        assert metrics.total_dead_time_s == 0.0

    def test_deterministic(self):
        net = random_wrsn(num_sensors=40, seed=7)
        a = MonitoringSimulation(
            net, "NETWRAP", 1, horizon_s=20 * 86400.0
        ).run()
        b = MonitoringSimulation(
            net, "NETWRAP", 1, horizon_s=20 * 86400.0
        ).run()
        assert a.round_longest_delays_s == b.round_longest_delays_s
        assert a.dead_time_s == b.dead_time_s

    def test_dead_time_bounded_by_horizon(self):
        net = random_wrsn(num_sensors=50, seed=8)
        horizon = 20 * 86400.0
        metrics = MonitoringSimulation(
            net, "AA", 1, horizon_s=horizon
        ).run()
        assert all(0 <= d <= horizon for d in metrics.dead_time_s.values())

    def test_seconds_per_year_constant(self):
        assert SECONDS_PER_YEAR == 365 * 24 * 3600
