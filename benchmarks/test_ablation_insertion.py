"""Ablation: the extension step's insertion discipline.

Algorithm 1 inserts each leftover candidate after its *latest-
finishing* scheduled H-neighbour, processing candidates in ascending
``f_N`` order — the paper argues this is what avoids cross-tour
overlap. The ablation compares that discipline against a naive variant
(insert each candidate at the *end of the currently shortest tour*)
and measures (a) how many overlap conflicts each produces before
repair and (b) the final delay after repair.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.appro import appro_schedule_with_artifacts
from repro.core.conflicts import conflicting_pairs, resolve_conflicts
from repro.core.schedule import ChargingSchedule
from repro.core.appro import appro_schedule
from repro.energy.charging import ChargerSpec, full_charge_time
from repro.graphs.auxiliary import build_auxiliary_graph
from repro.graphs.coverage import coverage_sets
from repro.graphs.mis import maximal_independent_set
from repro.graphs.unit_disk import build_charging_graph
from repro.network.topology import random_wrsn
from repro.tours.kminmax import solve_k_minmax_tours


@pytest.fixture(scope="module")
def instance():
    net = random_wrsn(num_sensors=600, seed=301)
    rng = np.random.default_rng(302)
    net.set_residuals(
        {
            sid: float(rng.uniform(0, 0.2)) * 10_800.0
            for sid in net.all_sensor_ids()
        }
    )
    return net


def naive_schedule(network, requests, num_chargers):
    """Algorithm 1 with the extension step replaced by append-to-
    shortest-tour (no f_N ordering, no anchor rule)."""
    spec = ChargerSpec()
    positions = network.positions()
    depot = network.depot.position
    charge_times = {
        sid: full_charge_time(
            network.sensor(sid).capacity_j,
            network.sensor(sid).residual_j,
            spec.charge_rate_w,
        )
        for sid in requests
    }
    graph = build_charging_graph(positions, spec.charge_radius_m,
                                 nodes=requests)
    candidates = maximal_independent_set(graph)
    coverage = coverage_sets(candidates, positions, spec.charge_radius_m,
                             targets=requests)
    aux = build_auxiliary_graph(candidates, coverage, positions,
                                spec.charge_radius_m)
    core = maximal_independent_set(aux)
    schedule = ChargingSchedule(
        depot=depot, positions=positions, coverage=coverage,
        charge_times=charge_times, charger=spec, num_tours=num_chargers,
    )
    tau = {
        v: max((charge_times[u] for u in coverage[v] if u in charge_times),
               default=0.0)
        for v in core
    }
    tours, _ = solve_k_minmax_tours(
        core, positions, depot, num_chargers, spec.travel_speed_mps,
        service=lambda v: tau[v],
    )
    for k, tour in enumerate(tours):
        for node in tour:
            schedule.append_stop(k, node)
    for node in candidates:
        if schedule.is_scheduled(node) or schedule.fully_covered(node):
            continue
        shortest = min(range(num_chargers), key=schedule.tour_delay)
        schedule.append_stop(shortest, node)
    return schedule


def test_ablation_paper_insertion(benchmark, instance):
    requests = instance.all_sensor_ids()

    def run():
        return appro_schedule_with_artifacts(
            instance, requests, 2, enforce_feasibility=False
        )

    schedule, art = benchmark.pedantic(run, rounds=1, iterations=1)
    conflicts = len(conflicting_pairs(schedule))
    waits = resolve_conflicts(schedule)
    print(
        f"\n[insertion=paper] pre-repair conflicts={conflicts} "
        f"waits={waits} delay={schedule.longest_delay() / 3600:.2f}h"
    )


def test_ablation_naive_insertion(benchmark, instance):
    requests = instance.all_sensor_ids()

    def run():
        return naive_schedule(instance, requests, 2)

    schedule = benchmark.pedantic(run, rounds=1, iterations=1)
    conflicts = len(conflicting_pairs(schedule))
    waits = resolve_conflicts(schedule)
    print(
        f"\n[insertion=naive] pre-repair conflicts={conflicts} "
        f"waits={waits} delay={schedule.longest_delay() / 3600:.2f}h"
    )


def test_paper_insertion_produces_fewer_conflicts(instance):
    """The paper's anchor rule should need no more repair waits than
    naive insertion (it is designed to avoid overlap)."""
    requests = instance.all_sensor_ids()
    paper_sched = appro_schedule(
        instance, requests, 2, enforce_feasibility=False
    )
    naive_sched = naive_schedule(instance, requests, 2)
    paper_conflicts = len(conflicting_pairs(paper_sched))
    naive_conflicts = len(conflicting_pairs(naive_sched))
    assert paper_conflicts <= naive_conflicts, (
        paper_conflicts, naive_conflicts
    )
