"""Unit tests for :mod:`repro.sim.mcv`."""

import numpy as np
import pytest

from repro.core.appro import appro_schedule
from repro.baselines.kedf import kedf_schedule
from repro.geometry.point import Point
from repro.sim.mcv import MCVTrajectory, Waypoint, replay_schedule


def depleted(net, seed=0):
    rng = np.random.default_rng(seed)
    net.set_residuals(
        {
            sid: float(rng.uniform(0, 0.2)) * 10_800.0
            for sid in net.all_sensor_ids()
        }
    )
    return net


class TestReplayCoreSchedule:
    def test_trajectories_per_vehicle(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        sched = appro_schedule(depleted_net, requests, num_chargers=2)
        trajectories = replay_schedule(sched)
        assert len(trajectories) == 2

    def test_starts_and_ends_at_depot(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        sched = appro_schedule(depleted_net, requests, num_chargers=2)
        for traj in replay_schedule(sched):
            if len(traj.waypoints) > 1:
                assert traj.waypoints[0].position == sched.depot
                assert traj.waypoints[-1].position == sched.depot

    def test_position_at_waypoint_times(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        sched = appro_schedule(depleted_net, requests, num_chargers=1)
        traj = replay_schedule(sched)[0]
        for wp in traj.waypoints:
            mid = (wp.arrive_s + wp.depart_s) / 2.0
            assert traj.position_at(mid) == wp.position

    def test_position_before_start(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        sched = appro_schedule(depleted_net, requests, num_chargers=1)
        traj = replay_schedule(sched)[0]
        assert traj.position_at(-100.0) == sched.depot

    def test_position_after_end(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        sched = appro_schedule(depleted_net, requests, num_chargers=1)
        traj = replay_schedule(sched)[0]
        assert traj.position_at(traj.ends_at_s + 1e6) == sched.depot


class TestReplayBaselineSchedule:
    def test_baseline_replay(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        sched = kedf_schedule(depleted_net, requests, num_chargers=2)
        trajectories = replay_schedule(sched)
        assert len(trajectories) == 2
        for traj, tour in zip(trajectories, sched.tours):
            # One waypoint per stop plus depot bookends.
            assert len(traj.waypoints) == len(tour) + 2

    def test_interpolation_midway(self):
        traj = MCVTrajectory(
            vehicle=0,
            waypoints=[
                Waypoint(Point(0, 0), 0.0, 0.0, "depot"),
                Waypoint(Point(10, 0), 10.0, 20.0, "stop"),
            ],
        )
        assert traj.position_at(5.0) == Point(5, 0)

    def test_empty_trajectory_raises(self):
        traj = MCVTrajectory(vehicle=0, waypoints=[])
        with pytest.raises(ValueError):
            traj.position_at(0.0)
        assert traj.ends_at_s == 0.0
