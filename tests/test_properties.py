"""Property-based tests (hypothesis) on core invariants.

These exercise the geometric and algorithmic invariants Algorithm 1's
correctness rests on, over randomly generated instances:

* MIS independence + maximality + coverage on unit-disk graphs;
* auxiliary-graph degree bound (Lemma 2);
* tour-splitting bound consistency and order preservation;
* full-pipeline feasibility: coverage, disjointness, no overlap —
  for Appro and for every registered planner;
* battery arithmetic invariants.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.appro import appro_schedule
from repro.core.ratio import delta_h_bound
from repro.core.validation import validate_schedule
from repro.energy.battery import Battery
from repro.energy.charging import full_charge_time
from repro.geometry.point import Point
from repro.graphs.auxiliary import auxiliary_max_degree, build_auxiliary_graph
from repro.graphs.coverage import coverage_sets, covers_all
from repro.graphs.mis import is_maximal_independent_set, maximal_independent_set
from repro.graphs.unit_disk import build_charging_graph
from tests._legacy_graphs import assert_same_rows, nx_build_charging_graph
from repro.network.nodes import BaseStation, Depot
from repro.network.sensor import Sensor
from repro.network.topology import WRSN
from repro.pipeline.planner import planner_names, run_planner
from repro.tours.splitting import segment_cost, split_tour_min_max

GAMMA = 2.7

# Strategy: a list of distinct-ish planar points in a 60x60 field.
coords = st.tuples(
    st.floats(0, 60, allow_nan=False, allow_infinity=False),
    st.floats(0, 60, allow_nan=False, allow_infinity=False),
)
point_lists = st.lists(coords, min_size=1, max_size=60)


def to_positions(raw):
    return {i: Point(x, y) for i, (x, y) in enumerate(raw)}


@settings(max_examples=40, deadline=None)
@given(point_lists, st.sampled_from(["min_degree", "lexicographic", "random"]))
def test_mis_is_maximal_independent_and_covers(raw, strategy):
    positions = to_positions(raw)
    graph = build_charging_graph(positions, GAMMA)
    mis = maximal_independent_set(graph, strategy=strategy, seed=0)
    assert is_maximal_independent_set(graph, mis)
    coverage = coverage_sets(mis, positions, GAMMA)
    assert covers_all(mis, coverage, required=positions)


@settings(max_examples=40, deadline=None)
@given(point_lists)
def test_auxiliary_degree_respects_lemma2(raw):
    positions = to_positions(raw)
    graph = build_charging_graph(positions, GAMMA)
    mis = maximal_independent_set(graph)
    coverage = coverage_sets(mis, positions, GAMMA)
    aux = build_auxiliary_graph(mis, coverage, positions, GAMMA)
    assert auxiliary_max_degree(aux) <= delta_h_bound()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(coords, min_size=1, max_size=25),
    st.integers(min_value=1, max_value=5),
    st.floats(0.0, 500.0),
)
def test_split_tour_invariants(raw, k, service_value):
    positions = to_positions(raw)
    order = sorted(positions)
    depot = Point(30, 30)
    service = lambda v: service_value
    segments, bound = split_tour_min_max(
        order, k, positions, depot, 1.0, service
    )
    # Exactly k segments; concatenation preserves order; realised max
    # equals the reported bound.
    assert len(segments) == k
    flat = [n for seg in segments for n in seg]
    assert flat == order
    if flat:
        realised = max(
            segment_cost(seg, positions, depot, 1.0, service)
            for seg in segments
            if seg
        )
        assert math.isclose(bound, realised, rel_tol=1e-9, abs_tol=1e-6)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(coords, min_size=2, max_size=40),
    st.integers(min_value=1, max_value=3),
    st.lists(st.floats(0.0, 0.2), min_size=40, max_size=40),
)
def test_appro_always_feasible(raw, k, fractions):
    positions = to_positions(raw)
    center = Point(30, 30)
    sensors = [
        Sensor(
            id=i,
            position=positions[i],
            battery=Battery(
                capacity_j=10_800.0,
                level_j=10_800.0 * fractions[i % len(fractions)],
            ),
        )
        for i in positions
    ]
    net = WRSN(
        sensors=sensors,
        base_station=BaseStation(position=center),
        depot=Depot(position=center),
    )
    requests = net.all_sensor_ids()
    schedule = appro_schedule(net, requests, num_chargers=k)
    assert validate_schedule(schedule, requests) == []
    # The objective is an upper bound for each tour delay and every
    # sensor finishes within it.
    delay = schedule.longest_delay()
    for f in schedule.sensor_finish_times().values():
        assert f <= delay + 1e-6


@settings(max_examples=60, deadline=None)
@given(
    st.floats(1.0, 1e6),
    st.floats(0.0, 1.0),
    st.floats(0.01, 100.0),
)
def test_full_charge_time_properties(capacity, fraction, rate):
    residual = capacity * fraction
    t = full_charge_time(capacity, residual, rate)
    assert t >= 0.0
    # Charging the returned duration at the given rate exactly fills
    # the deficit.
    assert math.isclose(
        residual + rate * t, capacity, rel_tol=1e-9, abs_tol=1e-9
    )


@settings(max_examples=60, deadline=None)
@given(
    st.floats(1.0, 1e6),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e6),
    st.floats(0.0, 1e6),
)
def test_battery_deplete_recharge_invariants(capacity, frac, drain, refill):
    battery = Battery(capacity_j=capacity, level_j=capacity * frac)
    drained = battery.deplete(drain)
    assert 0.0 <= drained <= drain + 1e-12
    assert 0.0 <= battery.level_j <= battery.capacity_j
    absorbed = battery.recharge(refill)
    assert 0.0 <= absorbed <= refill + 1e-12
    assert 0.0 <= battery.level_j <= battery.capacity_j


@settings(max_examples=30, deadline=None)
@given(point_lists)
def test_charging_graph_is_symmetric_unit_disk(raw):
    positions = to_positions(raw)
    graph = build_charging_graph(positions, GAMMA)
    assert_same_rows(graph, nx_build_charging_graph(positions, GAMMA))
    for u in graph.nodes:
        for v in graph.neighbors(u):
            assert u in graph.neighbors(v)
            assert positions[u].distance_to(positions[v]) <= GAMMA + 1e-9
    # Spot-check some non-edges.
    nodes = sorted(positions)
    for u in nodes[:5]:
        for v in nodes[-5:]:
            if u != v and v not in graph.neighbors(u):
                assert positions[u].distance_to(positions[v]) > GAMMA - 1e-9


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(coords, min_size=1, max_size=30),
    st.integers(min_value=1, max_value=4),
    st.floats(0.05, 1.0),
    st.sampled_from(planner_names()),
)
def test_every_registered_planner_validates(raw, k, density, name):
    """Every planner's schedule passes Definition 1 against its own
    coverage, and through the pipeline's ``validate`` as well."""
    positions = to_positions(raw)
    center = Point(30, 30)
    sensors = [
        Sensor(
            id=i,
            position=positions[i],
            battery=Battery(capacity_j=10_800.0, level_j=1_000.0 + 97.0 * i),
        )
        for i in positions
    ]
    net = WRSN(
        sensors=sensors,
        base_station=BaseStation(position=center),
        depot=Depot(position=center),
    )
    ids = net.all_sensor_ids()
    requests = ids[: max(1, int(round(density * len(ids))))]
    planned = run_planner(name, net, requests, k)
    assert validate_schedule(planned.raw, requests) == []
    assert planned.validate(requests) == []
    assert planned.covered_sensors() == set(requests)
