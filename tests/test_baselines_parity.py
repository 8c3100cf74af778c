"""The one-to-one planners against the retired ``BaselineSchedule``.

K-EDF, NETWRAP, AA and K-minMax now return a ``ChargingSchedule`` whose
stops each cover only their own sensor. Over a seeded grid of sizes,
request sets and ``K``, each must serialize to exactly the bytes the
retired itinerary type gave (``tests/_legacy_baselines.py``), and report
the same delays and sensor finish times bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.validation import validate_schedule
from repro.energy.battery import Battery
from repro.geometry.point import Point
from repro.io import dump_jsonl_line, schedule_to_dict
from repro.network.nodes import BaseStation, Depot
from repro.network.sensor import Sensor
from repro.network.topology import WRSN, random_wrsn
from repro.pipeline.planner import get_planner, run_planner
from tests._legacy_baselines import LEGACY_PLANNERS, legacy_schedule_to_dict

GRID = [
    (n, k, seed)
    for seed, (n, k) in enumerate(
        [(1, 1), (2, 3), (7, 2), (20, 1), (20, 5), (45, 2), (60, 3),
         (90, 4), (120, 2), (150, 3)]
    )
]


def _network(n: int, seed: int):
    net = random_wrsn(num_sensors=n, seed=seed)
    rng = np.random.default_rng(seed + 500)
    net.set_residuals(
        {
            sid: float(rng.uniform(0.02, 0.3)) * net.sensor(sid).capacity_j
            for sid in net.all_sensor_ids()
        }
    )
    return net


@pytest.mark.parametrize("name", sorted(LEGACY_PLANNERS))
@pytest.mark.parametrize("n,k,seed", GRID)
def test_matches_retired_itineraries(name, n, k, seed):
    net = _network(n, seed)
    ids = net.all_sensor_ids()
    # Alternate between every sensor and every other one.
    requests = ids if seed % 2 == 0 else ids[::2]
    legacy = LEGACY_PLANNERS[name](net.copy(), requests, k)
    planned = run_planner(name, net, requests, k)
    assert dump_jsonl_line(schedule_to_dict(planned, name)) == (
        dump_jsonl_line(legacy_schedule_to_dict(legacy, name))
    )
    assert planned.tour_delays() == legacy.tour_delays()
    assert planned.sensor_finish_times() == legacy.sensor_finish_times()
    assert planned.covered_sensors() == set(legacy.visited_sensors())


@pytest.mark.parametrize("name", ["K-EDF", "NETWRAP"])
def test_matches_with_supplied_lifetimes(name):
    net = _network(50, 11)
    requests = net.all_sensor_ids()
    lifetimes = {sid: 1e5 + 997.0 * (sid % 13) for sid in requests}
    legacy = LEGACY_PLANNERS[name](net.copy(), requests, 3, lifetimes=lifetimes)
    planned = run_planner(name, net, requests, 3, lifetimes=lifetimes)
    assert dump_jsonl_line(schedule_to_dict(planned, name)) == (
        dump_jsonl_line(legacy_schedule_to_dict(legacy, name))
    )


@pytest.mark.parametrize("name", sorted(LEGACY_PLANNERS))
def test_each_stop_covers_only_its_own_sensor(name):
    assert not get_planner(name).multi_node
    net = _network(40, 3)
    requests = net.all_sensor_ids()
    schedule = run_planner(name, net, requests, 2).raw
    for node in schedule.scheduled_stops():
        assert schedule.coverage[node] == frozenset({node})
        assert schedule.charges[node] == frozenset({node})
        assert schedule.wait[node] == 0.0


def test_validated_against_its_own_coverage_not_the_disks():
    """Two sensors inside one charging disk, charged at once by two
    vehicles: against the context's disk groups that would be an
    overlap, but no sensor is shared, so the plan is feasible."""
    sensors = [
        Sensor(id=i, position=Point(10.0 + i, 0.0),
               battery=Battery(capacity_j=10_800.0, level_j=1_000.0))
        for i in range(2)
    ]
    net = WRSN(
        sensors=sensors,
        base_station=BaseStation(position=Point(0.0, 0.0)),
        depot=Depot(position=Point(0.0, 0.0)),
    )
    planned = run_planner("K-EDF", net, [0, 1], 2)
    assert sorted(map(len, planned.tours)) == [1, 1]
    stops = planned.scheduled_stops()
    assert not planned.context.built_coverage(planned.raw.coverage, stops)
    disks = planned.context.sensor_stop_groups(stops)
    assert [v.kind for v in validate_schedule(planned.raw, [0, 1], disks)] == [
        "overlap"
    ]
    assert planned.validate([0, 1]) == []
