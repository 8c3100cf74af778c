"""Deeper property-based tests: optimality gaps, fuzzing, invariants.

Complements ``test_properties.py`` with properties that need ground
truth (exact solvers, brute force) or adversarial state (random
insertion sequences, injected conflicts):

* greedy consecutive splitting matches brute-force optimal consecutive
  splitting for the given order;
* the production K-tour solver never beats the exact optimum and stays
  within a small constant of it on tiny instances;
* random insertion sequences keep every :class:`ChargingSchedule`
  invariant intact;
* conflict resolution always terminates with zero conflicts and never
  un-covers a sensor.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.conflicts import conflicting_pairs, resolve_conflicts
from repro.core.schedule import ChargingSchedule
from repro.energy.charging import ChargerSpec
from repro.geometry.point import Point
from repro.tours.exact import exact_k_minmax
from repro.tours.kminmax import solve_k_minmax_tours
from repro.tours.splitting import segment_cost, split_tour_min_max

coords = st.tuples(
    st.floats(0, 40, allow_nan=False, allow_infinity=False),
    st.floats(0, 40, allow_nan=False, allow_infinity=False),
)


def brute_force_consecutive_split(order, k, positions, depot, speed, service):
    """Optimal max-cost over all ways to cut ``order`` into ≤ k
    consecutive segments (exponential; tiny inputs only)."""
    n = len(order)
    best = math.inf
    # Choose cut positions: subsets of {1..n-1} of size ≤ k-1.
    for cuts in range(min(k, n)):
        for cut_positions in itertools.combinations(range(1, n), cuts):
            bounds = [0, *cut_positions, n]
            value = max(
                segment_cost(
                    order[a:b], positions, depot, speed, service
                )
                for a, b in zip(bounds, bounds[1:])
            )
            best = min(best, value)
    return best


@settings(max_examples=25, deadline=None)
@given(
    st.lists(coords, min_size=1, max_size=7),
    st.integers(min_value=1, max_value=3),
    st.floats(0.0, 300.0),
)
def test_greedy_split_is_optimal_for_fixed_order(raw, k, service_value):
    positions = {i: Point(x, y) for i, (x, y) in enumerate(raw)}
    order = sorted(positions)
    depot = Point(20, 20)
    service = lambda v: service_value
    _, achieved = split_tour_min_max(
        order, k, positions, depot, 1.0, service
    )
    optimal = brute_force_consecutive_split(
        order, k, positions, depot, 1.0, service
    )
    assert achieved <= optimal * (1 + 1e-9) + 1e-6


@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(coords, min_size=2, max_size=7),
    st.integers(min_value=1, max_value=3),
)
def test_kminmax_solver_vs_exact_optimum(raw, k):
    positions = {i: Point(x, y) for i, (x, y) in enumerate(raw)}
    depot = Point(20, 20)
    service = lambda v: 50.0
    _, opt = exact_k_minmax(
        list(positions), positions, depot, k, 1.0, service
    )
    _, approx = solve_k_minmax_tours(
        list(positions), positions, depot, k, 1.0, service
    )
    assert approx >= opt - 1e-6
    assert approx <= 2.5 * opt + 1e-6


def _make_schedule(raw, k):
    """A ChargingSchedule over a line of candidates whose disks chain."""
    positions = {i: Point(x, y) for i, (x, y) in enumerate(raw)}
    # Coverage: each candidate covers itself and its index-neighbours —
    # an artificial but valid overlapping structure.
    n = len(raw)
    coverage = {
        i: frozenset(
            j for j in (i - 1, i, i + 1) if 0 <= j < n
        )
        for i in range(n)
    }
    charge_times = {i: 10.0 * (i + 1) for i in range(n)}
    return (
        ChargingSchedule(
            depot=Point(0, 0),
            positions=positions,
            coverage=coverage,
            charge_times=charge_times,
            charger=ChargerSpec(),
            num_tours=k,
        ),
        positions,
    )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(coords, min_size=1, max_size=10, unique=True),
    st.integers(min_value=1, max_value=3),
    st.randoms(use_true_random=False),
)
def test_schedule_invariants_under_random_insertions(raw, k, rng):
    schedule, positions = _make_schedule(raw, k)
    nodes = list(positions)
    rng.shuffle(nodes)
    for node in nodes:
        tour_index = rng.randrange(k)
        tour = schedule.tours[tour_index]
        anchor = rng.choice(tour) if tour and rng.random() < 0.5 else None
        schedule.insert_stop_after(tour_index, anchor, node)

    # Invariant 1: every node scheduled exactly once.
    flat = schedule.scheduled_stops()
    assert sorted(flat) == sorted(positions)

    # Invariant 2: finish-time recursion holds along every tour.
    for k_idx, tour in enumerate(schedule.tours):
        clock = 0.0
        prev = None
        for node in tour:
            clock += schedule.travel_time(prev, node)
            assert schedule.arrival[node] == pytest.approx(clock)
            clock += schedule.wait[node] + schedule.duration[node]
            assert schedule.finish[node] == pytest.approx(clock)
            prev = node

    # Invariant 3: coverage ownership is a partition.
    owners = {}
    for node, charged in schedule.charges.items():
        for sensor in charged:
            assert sensor not in owners
            owners[sensor] = node
    assert set(owners) == set(positions)

    # Invariant 4: the objective dominates every per-sensor finish.
    delay = schedule.longest_delay()
    for f in schedule.sensor_finish_times().values():
        assert f <= delay + 1e-6


@settings(max_examples=30, deadline=None)
@given(
    st.lists(coords, min_size=2, max_size=10, unique=True),
    st.integers(min_value=2, max_value=3),
    st.randoms(use_true_random=False),
)
def test_resolve_conflicts_terminates_and_repairs(raw, k, rng):
    schedule, positions = _make_schedule(raw, k)
    nodes = list(positions)
    rng.shuffle(nodes)
    # Round-robin across tours maximises cross-tour adjacency of
    # overlapping disks — the adversarial case for the constraint.
    for i, node in enumerate(nodes):
        schedule.append_stop(i % k, node)
    covered_before = schedule.covered_sensors()
    resolve_conflicts(schedule)
    assert conflicting_pairs(schedule) == []
    assert schedule.covered_sensors() == covered_before
