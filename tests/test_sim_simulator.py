"""Unit and behavioural tests for :mod:`repro.sim.simulator`."""

import math

import numpy as np
import pytest

from repro.energy.consumption import RadioModel
from repro.network.topology import random_wrsn
from repro.sim.simulator import (
    SECONDS_PER_YEAR,
    BatteryTrajectories,
    MonitoringSimulation,
)


def one_sensor(capacity_j, level_j, draw_w):
    """A one-sensor population; the sensor's id is 0."""
    return BatteryTrajectories([0], [capacity_j], [level_j], [draw_w])


class TestSensorState:
    """One sensor's trajectory through the per-sensor accessors."""

    def test_level_at_linear(self):
        state = one_sensor(capacity_j=100.0, level_j=100.0, draw_w=2.0)
        assert state.level_at(0, 10.0) == pytest.approx(80.0)

    def test_level_clamps_at_zero(self):
        state = one_sensor(capacity_j=100.0, level_j=10.0, draw_w=2.0)
        assert state.level_at(0, 100.0) == 0.0

    def test_death_time(self):
        state = one_sensor(capacity_j=100.0, level_j=50.0, draw_w=2.0)
        assert state.death_time(0) == pytest.approx(25.0)

    def test_death_time_zero_draw(self):
        state = one_sensor(capacity_j=100.0, level_j=50.0, draw_w=0.0)
        assert state.death_time(0) == math.inf

    def test_crossing_time(self):
        state = one_sensor(capacity_j=100.0, level_j=100.0, draw_w=2.0)
        assert state.crossing_time(0, 20.0) == pytest.approx(40.0)

    def test_crossing_time_already_below(self):
        state = one_sensor(capacity_j=100.0, level_j=10.0, draw_w=2.0)
        assert state.crossing_time(0, 20.0) == -math.inf

    def test_recharge(self):
        state = one_sensor(capacity_j=100.0, level_j=10.0, draw_w=1.0)
        state.recharge_full_at(0, 50.0)
        assert state.level_at(0, 50.0) == 100.0
        assert state.level_at(0, 60.0) == pytest.approx(90.0)

    def test_advance_to(self):
        """Re-anchoring at the current level keeps the trajectory."""
        state = one_sensor(capacity_j=100.0, level_j=100.0, draw_w=1.0)
        state.recharge_to(0, state.level_at(0, 30.0), 30.0)
        assert state.level_at(0, 30.0) == pytest.approx(70.0)
        assert state.level_at(0, 40.0) == pytest.approx(60.0)
        assert state.death_time(0) == pytest.approx(100.0)


def random_population(seed, n=200):
    """Random trajectories with the boundary cases planted: levels
    exactly at the threshold, zero draws, empty batteries, and some
    failed sensors."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10 * n, size=n, replace=False)).tolist()
    capacity = rng.uniform(50.0, 150.0, n)
    level = capacity * rng.uniform(0.0, 1.0, n)
    at_threshold = rng.random(n) < 0.1
    level[at_threshold] = THRESHOLD * capacity[at_threshold]
    level[rng.random(n) < 0.05] = 0.0
    draw = rng.uniform(0.0, 2.0, n)
    draw[rng.random(n) < 0.1] = 0.0
    traj = BatteryTrajectories(ids, capacity.tolist(), level.tolist(), draw)
    for sid in rng.choice(ids, size=n // 10, replace=False).tolist():
        traj.fail(sid)
    return traj, ids


THRESHOLD = 0.2


class TestPopulationQueries:
    """The vectorized queries equal a loop over the scalar accessors."""

    @pytest.mark.parametrize("seed", range(5))
    def test_below_matches_scalar_scan(self, seed):
        traj, ids = random_population(seed)
        for t in (0.0, 1.0, 17.5, 60.0, 1e4):
            want = [
                sid
                for sid in ids
                if sid in traj
                and traj.level_at(sid, t) < THRESHOLD * traj.capacity_j(sid)
            ]
            assert traj.below(t, THRESHOLD) == want

    @pytest.mark.parametrize("seed", range(5))
    def test_next_crossing_matches_scalar_min(self, seed):
        traj, _ = random_population(seed)
        alive = traj.alive_ids()

        def scalar_min():
            return min(
                traj.crossing_time(sid, THRESHOLD * traj.capacity_j(sid))
                for sid in alive
            )

        assert traj.next_crossing(THRESHOLD) == scalar_min() == -math.inf
        # Recharge every sensor at or below the threshold: the minimum
        # is then a finite crossing.
        for sid in alive:
            if traj.level_at(sid, 0.0) <= THRESHOLD * traj.capacity_j(sid):
                traj.recharge_full_at(sid, 5.0)
        assert traj.next_crossing(THRESHOLD) == scalar_min()
        assert math.isfinite(scalar_min())

    def test_failed_sensors_leave_every_query(self):
        traj = BatteryTrajectories(
            [1, 4], [100.0, 100.0], [10.0, 100.0], [1.0, 1.0]
        )
        assert traj.below(0.0, THRESHOLD) == [1]
        traj.fail(1)
        assert 1 not in traj and 4 in traj
        assert traj.alive_ids() == [4]
        assert traj.below(0.0, THRESHOLD) == []
        assert traj.next_crossing(THRESHOLD) == pytest.approx(80.0)
        traj.fail(4)
        assert traj.next_crossing(THRESHOLD) == math.inf

    def test_accessors_return_python_floats(self):
        traj = one_sensor(capacity_j=100.0, level_j=50.0, draw_w=2.0)
        values = [
            traj.level_at(0, 3.0),
            traj.death_time(0),
            traj.crossing_time(0, 20.0),
            traj.capacity_j(0),
            traj.draw_w(0),
            traj.next_crossing(THRESHOLD),
        ]
        assert all(type(v) is float for v in values)

    @pytest.mark.parametrize(
        "ids,capacity,level,draw",
        [
            ([0, 1], [100.0], [50.0], [1.0]),
            ([1, 0], [100.0, 100.0], [50.0, 50.0], [1.0, 1.0]),
            ([0, 0], [100.0, 100.0], [50.0, 50.0], [1.0, 1.0]),
            ([0], [0.0], [0.0], [1.0]),
            ([0], [100.0], [150.0], [1.0]),
            ([0], [100.0], [-1.0], [1.0]),
            ([0], [100.0], [50.0], [-1.0]),
            ([0], [100.0], [50.0], [math.nan]),
        ],
    )
    def test_invalid_input_raises_value_error(self, ids, capacity, level, draw):
        with pytest.raises(ValueError):
            BatteryTrajectories(ids, capacity, level, draw)


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
