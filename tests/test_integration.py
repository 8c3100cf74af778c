"""End-to-end integration tests across the whole pipeline."""

import numpy as np
import pytest

from repro.bench.reporting import format_series_table
from repro.bench.runner import run_figure
from repro.core.appro import appro_schedule_with_artifacts
from repro.core.validation import validate_schedule
from repro.energy.charging import full_charge_time
from repro.network.topology import random_wrsn
from repro.pipeline import planner_names, run_planner
from repro.sim.simulator import MonitoringSimulation


def depleted(n, seed):
    net = random_wrsn(num_sensors=n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    net.set_residuals(
        {
            sid: float(rng.uniform(0, 0.2)) * 10_800.0
            for sid in net.all_sensor_ids()
        }
    )
    return net


class TestSchedulingPipeline:
    def test_appro_end_to_end_with_artifacts(self):
        net = depleted(250, seed=21)
        requests = net.all_sensor_ids()
        schedule, art = appro_schedule_with_artifacts(net, requests, 3)

        # Structure: S_I covers V_s; core conflict-free; final schedule
        # covers everything feasibly.
        assert validate_schedule(schedule, requests) == []
        assert len(art.conflict_free_core) <= len(art.sojourn_candidates)
        assert schedule.num_tours == 3

        # Multi-node economy: fewer stops than sensors.
        assert len(schedule.scheduled_stops()) < len(requests)

    def test_all_algorithms_same_requests_comparable(self):
        net = depleted(150, seed=22)
        requests = net.all_sensor_ids()
        lifetimes = {sid: 1e9 for sid in requests}
        delays = {}
        for name in planner_names(paper_only=True):
            result = run_planner(name, net, requests, 2,
                                 lifetimes=lifetimes)
            delays[name] = result.longest_delay()
            assert set(result.sensor_finish_times()) >= set(requests)
        # Multi-node Appro beats all one-to-one baselines on a dense
        # fully-depleted instance.
        for name, delay in delays.items():
            if name != "Appro":
                assert delays["Appro"] < delay, delays

    def test_sensor_finish_time_semantics(self):
        """A sensor's finish time is at least its own charge duration
        after the vehicle can first have reached it."""
        net = depleted(80, seed=23)
        requests = net.all_sensor_ids()
        schedule = appro_schedule_with_artifacts(net, requests, 2)[0]
        finishes = schedule.sensor_finish_times()
        spec = schedule.charger
        for sid in requests:
            t_v = full_charge_time(
                net.sensor(sid).capacity_j,
                net.sensor(sid).residual_j,
                spec.charge_rate_w,
            )
            assert finishes[sid] >= t_v - 1e-6


class TestSimulationPipeline:
    def test_monitoring_then_metrics(self):
        net = random_wrsn(num_sensors=120, seed=24)
        metrics = MonitoringSimulation(
            net, "Appro", num_chargers=2, horizon_s=20 * 86400.0
        ).run()
        assert metrics.num_rounds >= 1
        assert metrics.mean_longest_delay_s > 0

    def test_appro_no_worse_dead_time_than_aa(self):
        """In a loaded network Appro must not lose to the weakest
        baseline on dead time."""
        net = random_wrsn(num_sensors=400, seed=25)
        horizon = 25 * 86400.0
        appro = MonitoringSimulation(
            net, "Appro", 1, horizon_s=horizon
        ).run()
        aa = MonitoringSimulation(net, "AA", 1, horizon_s=horizon).run()
        assert appro.total_dead_time_s <= aa.total_dead_time_s


class TestBenchPipeline:
    def test_fig3_micro_run_and_report(self):
        """A miniature Fig. 3 run end to end through the harness and
        the reporter."""
        result = run_figure(
            "fig3",
            x_values=(60, 120),
            instances=1,
            horizon_s=6 * 86400.0,
            algorithms=("Appro", "K-EDF"),
        )
        assert result.x_values == [60, 120]
        table_a = format_series_table(
            result, "longest_delay_h", "Fig 3(a) micro", "hours"
        )
        table_b = format_series_table(
            result, "dead_min", "Fig 3(b) micro", "minutes"
        )
        assert "Appro" in table_a and "K-EDF" in table_b
