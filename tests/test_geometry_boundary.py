"""Pins the one "within γ" rule on a pair where the two hypots disagree.

``np.hypot`` and CPython's ``math.hypot`` round differently on the pair
below: at γ = 2.7, ``np.hypot`` gives exactly 2.7 (inside) and
``math.hypot`` gives 2.7000000000000006 (outside). Every membership
test in the repo — ``G_c``, the coverage sets ``N_c⁺(v)``, the context
memo and :meth:`DiskIndex.within_bulk` — follows ``math.hypot``, the
rule of :meth:`Point.distance_to`, so the pair is outside under every
query.
"""

import math

import numpy as np

from repro.energy.charging import ChargerSpec
from repro.geometry.disk_index import DiskIndex
from repro.geometry.point import Point
from repro.graphs.coverage import coverage_sets
from repro.graphs.unit_disk import build_charging_graph
from repro.network.nodes import BaseStation, Depot
from repro.network.sensor import Sensor
from repro.network.topology import WRSN
from repro.pipeline import PlanningContext

GAMMA = 2.7
ORIGIN = Point(0.0, 0.0)
EDGE = Point(1.2908828103117176, 2.3714176287701254)
POSITIONS = {0: ORIGIN, 1: EDGE}


def test_the_two_hypots_disagree_on_the_pair():
    assert np.hypot(ORIGIN.x - EDGE.x, ORIGIN.y - EDGE.y) <= GAMMA
    assert math.hypot(ORIGIN.x - EDGE.x, ORIGIN.y - EDGE.y) > GAMMA


def test_charging_graph_lacks_the_edge_whose_distance_exceeds_gamma():
    graph = build_charging_graph(POSITIONS, radius_m=GAMMA)
    assert graph.neighbors(0) == ()
    assert graph.neighbors(1) == ()
    distance = POSITIONS[0].distance_to(POSITIONS[1])
    assert distance == 2.7000000000000006  # repro-lint: disable=float-eq
    assert distance > GAMMA


def test_coverage_sets_exclude_the_sensor():
    coverage = coverage_sets([0, 1], POSITIONS, radius_m=GAMMA)
    assert coverage == {0: frozenset({0}), 1: frozenset({1})}


def test_context_coverage_for_excludes_the_sensor():
    center = Point(50.0, 50.0)
    net = WRSN(
        sensors=[
            Sensor(id=0, position=ORIGIN),
            Sensor(id=1, position=EDGE),
        ],
        base_station=BaseStation(position=center),
        depot=Depot(position=center),
    )
    ctx = PlanningContext(net, [0, 1], ChargerSpec(charge_radius_m=GAMMA))
    assert ctx.coverage_for([0, 1]) == {
        0: frozenset({0}),
        1: frozenset({1}),
    }


def test_grid_index_within_excludes_the_sensor():
    index = DiskIndex(POSITIONS)
    assert index.within_bulk([ORIGIN, EDGE], GAMMA) == [[0], [1]]
    rows, cols = index.pairs_within([ORIGIN], GAMMA)
    assert rows.tolist() == [0] and cols.tolist() == [0]


# ---------------------------------------------------------------------
# The band filter of DiskIndex.pairs_within
#
# pairs_within decides a pair by numpy's squared distance unless it
# lies within a relative 1e-9 of r², and asks math.hypot only there.
# Each case below must give exactly the pairs a per-pair math.hypot
# scan gives, in (center, label) order.
# ---------------------------------------------------------------------


def _hypot_reference(points, centers, radius_m):
    rows, cols = [], []
    for i, (cx, cy) in enumerate(centers):
        for j, (px, py) in enumerate(points):
            if math.hypot(cx - px, cy - py) <= radius_m:
                rows.append(i)
                cols.append(j)
    return rows, cols


def _assert_pairs_match_reference(points, centers, radius_m):
    index = DiskIndex(dict(enumerate(points)))
    rows, cols = index.pairs_within(centers, radius_m)
    expected = _hypot_reference(points, centers, radius_m)
    assert (rows.tolist(), cols.tolist()) == expected
    if centers is points:
        rows, cols = index.self_pairs_within(radius_m)
        assert (rows.tolist(), cols.tolist()) == expected
    return len(expected[0])


def _lattice(step, offset, side=12):
    return [
        (offset + i * step, offset - j * step)
        for i in range(side)
        for j in range(side)
    ]


def _ring(center, radius_m, factors, spokes=16):
    cx, cy = center
    return [
        (
            cx + radius_m * f * math.cos(2 * math.pi * k / spokes),
            cy + radius_m * f * math.sin(2 * math.pi * k / spokes),
        )
        for f in factors
        for k in range(spokes)
    ]


_RELATIVE = [1e-16, 3e-16, 1e-15, 1e-14, 1e-13, 1e-12]
_FACTORS = [1.0] + [1.0 + s * e for e in _RELATIVE for s in (1, -1)]
_OFFSETS = [0.0, 0.1, 1e3, 123456.789, 1e6, -1e6]


def test_exact_radius_lattices_match_hypot():
    """3-4-5 and 5-12-13 lattice distances sit on the boundary."""
    kept = 0
    for offset in _OFFSETS:
        for step, radius_m in [
            (0.3, 1.5), (0.54, 2.7), (0.54, 7.02), (0.2, 2.6), (1.0, 5.0)
        ]:
            pts = _lattice(step, offset)
            kept += _assert_pairs_match_reference(pts, pts, radius_m)
    assert kept > 0


def test_points_a_few_ulps_off_the_radius_match_hypot():
    for offset in _OFFSETS:
        for radius_m in (2.7, 5.4, 0.3, 1e-3, 1234.5):
            center = (offset, offset / 3.0)
            pts = _ring(center, radius_m, _FACTORS)
            for direction in (math.inf, -math.inf):
                edge = math.nextafter(radius_m, direction)
                pts += _ring(center, edge, [1.0], spokes=8)
                pts.append((center[0] + edge, center[1]))
                pts.append((center[0], center[1] - edge))
            pts.append((center[0] + radius_m, center[1]))
            _assert_pairs_match_reference(pts, [center] + pts[:8], radius_m)


def test_the_two_hypots_pair_decided_by_math_hypot():
    # np.hypot calls this pair inside; the band must send it to
    # math.hypot, which calls it outside.
    pts = [(ORIGIN.x, ORIGIN.y), (EDGE.x, EDGE.y)]
    assert _assert_pairs_match_reference(pts, pts, GAMMA) == 2
    for offset in (1.0, 1e3, 1e6):
        shifted = [(x + offset, y + offset) for x, y in pts]
        _assert_pairs_match_reference(shifted, shifted, GAMMA)


def test_coincident_points_and_radius_zero():
    pts = [(0.3, -0.6)] * 4 + [(0.3, -0.6 + 5e-324), (1e6, 1e6)] * 2
    for radius_m in (0.0, 5e-324, 1e-300, 1.0):
        assert _assert_pairs_match_reference(pts, pts, radius_m) >= 16


def test_subnormal_and_tiny_radii_fall_back_to_hypot():
    tiny = 5e-324
    for radius_m in (tiny, 3 * tiny, 1e-310, 1e-160, 2.5e-150):
        pts = [(k * radius_m / 2.0, 0.0) for k in range(6)]
        pts += [(0.0, radius_m), (radius_m, radius_m)]
        pts += _ring((0.0, 0.0), radius_m, [1.0, 1.0 + 1e-15], spokes=4)
        _assert_pairs_match_reference(pts, pts, radius_m)


def test_huge_coordinates_and_radii_fall_back_to_hypot():
    for radius_m in (1e99, 1e101, 1e150):
        pts = _ring((radius_m, -radius_m), radius_m, _FACTORS, spokes=6)
        pts.append((radius_m, -radius_m))
        _assert_pairs_match_reference(pts, pts[-8:], radius_m)


def test_self_pairs_equal_pairs_within_on_the_same_points():
    """The index's tree queried against itself gives the arrays a
    query with its own points as the centers gives."""
    rng = np.random.default_rng(7)
    for n, side in [(1, 10.0), (40, 10.0), (500, 100.0), (2000, 200.0)]:
        pts = [tuple(p) for p in rng.uniform(0.0, side, size=(n, 2))]
        pts += pts[: n // 10]  # coincident duplicates
        index = DiskIndex(dict(enumerate(pts)))
        for radius_m in (0.0, 0.5, 2.7, 5.4, 2.0 * side):
            rows, cols = index.self_pairs_within(radius_m)
            ref_rows, ref_cols = index.pairs_within(pts, radius_m)
            assert rows.dtype == ref_rows.dtype
            assert np.array_equal(rows, ref_rows)
            assert np.array_equal(cols, ref_cols)
    empty = DiskIndex({})
    assert [a.tolist() for a in empty.self_pairs_within(1.0)] == [[], []]


def test_pair_distances_are_distance_to():
    """``DiskIndex.pair_distances`` gives ``Point.distance_to``'s float
    from the first point of each pair, on the disagreeing pair, huge,
    tiny and coincident coordinates and a random field."""
    rng = np.random.default_rng(5)
    points = [ORIGIN, EDGE, Point(1e300, -1e300), Point(-1e300, 1e300),
              Point(5e-324, 0.0), Point(0.0, 0.0)]
    points += [Point(*map(float, xy)) for xy in rng.uniform(-50, 50, (40, 2))]
    index = DiskIndex(dict(enumerate(points)))
    first, second = np.meshgrid(np.arange(len(points)), np.arange(len(points)))
    first, second = first.ravel(), second.ravel()
    got = index.pair_distances(first, second)
    want = [
        points[i].distance_to(points[j])
        for i, j in zip(first.tolist(), second.tolist())
    ]
    assert [d.hex() for d in got] == [d.hex() for d in want]
