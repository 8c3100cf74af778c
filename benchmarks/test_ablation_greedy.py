"""Ablation: MIS + conflict machinery vs plain greedy set cover.

``GreedyCover`` uses multi-node charging (the big win) but replaces the
MIS/auxiliary-graph construction with plain greedy set cover and simply
repairs conflicts afterwards. Comparing it against ``Appro`` separates
the contribution of multi-node charging itself from the contribution of
the paper's conflict-aware machinery:

* stop counts — set cover picks fewer, denser stops;
* pre-repair conflicts and repair waits — the price of ignoring the
  constraint during construction;
* execution robustness — how much timing slack each construction
  leaves (``repro.sim.robustness``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.greedy_cover import greedy_cover_schedule
from repro.core.appro import appro_schedule
from repro.core.conflicts import conflicting_pairs
from repro.core.validation import validate_schedule
from repro.geometry.deployment import clustered_deployment
from repro.energy.battery import Battery
from repro.network.nodes import BaseStation, Depot
from repro.network.sensor import Sensor
from repro.network.topology import WRSN, random_wrsn
from repro.sim.robustness import robustness_report


def depleted_uniform(n, seed):
    net = random_wrsn(num_sensors=n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    net.set_residuals(
        {
            sid: float(rng.uniform(0, 0.2)) * 10_800.0
            for sid in net.all_sensor_ids()
        }
    )
    return net


def depleted_clustered(n, seed):
    rng = np.random.default_rng(seed)
    points = clustered_deployment(
        n, num_clusters=8, cluster_std=4.0, seed=seed
    )
    sensors = [
        Sensor(
            id=i, position=p,
            battery=Battery(
                capacity_j=10_800.0,
                level_j=float(rng.uniform(0, 0.2)) * 10_800.0,
            ),
        )
        for i, p in enumerate(points)
    ]
    from repro.geometry.deployment import Field

    center = Field().center
    return WRSN(
        sensors=sensors,
        base_station=BaseStation(position=center),
        depot=Depot(position=center),
    )


@pytest.mark.parametrize(
    "deployment", ["uniform", "clustered"]
)
def test_ablation_greedy_vs_appro(benchmark, deployment):
    net = (
        depleted_uniform(500, seed=501)
        if deployment == "uniform"
        else depleted_clustered(500, seed=502)
    )
    requests = net.all_sensor_ids()

    def run():
        appro = appro_schedule(net, requests, 2)
        greedy_raw = greedy_cover_schedule(
            net, requests, 2, enforce_feasibility=False
        )
        conflicts = len(conflicting_pairs(greedy_raw))
        greedy = greedy_cover_schedule(net, requests, 2)
        return appro, greedy, conflicts

    appro, greedy, raw_conflicts = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert validate_schedule(appro, requests) == []
    assert validate_schedule(greedy, requests) == []

    appro_rob = robustness_report(appro, trials=25, seed=1)
    greedy_rob = robustness_report(greedy, trials=25, seed=1)
    print(
        f"\n[{deployment}] Appro: stops={len(appro.scheduled_stops())} "
        f"delay={appro.longest_delay() / 3600:.2f}h "
        f"P(viol)={appro_rob.violation_probability:.2f}"
    )
    print(
        f"[{deployment}] GreedyCover: "
        f"stops={len(greedy.scheduled_stops())} "
        f"delay={greedy.longest_delay() / 3600:.2f}h "
        f"pre-repair conflicts={raw_conflicts} "
        f"P(viol)={greedy_rob.violation_probability:.2f}"
    )
    # Set cover never needs more stops than an MIS-based cover.
    assert len(greedy.scheduled_stops()) <= len(appro.scheduled_stops())
