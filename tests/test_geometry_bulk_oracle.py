"""The KD-tree bulk query against the retired dense broadcast.

``DiskIndex.within_bulk`` must return exactly the rows of the dense
broadcast it replaced (``tests/_legacy_geometry.py``), whose members
are decided by ``math.hypot``: same members, same order.
Lattice-quantised points make exact-boundary ties common, so the query
radius slack and the exact filter are exercised where they matter.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import PaperParams, make_instance
from repro.geometry.disk_index import DiskIndex
from repro.geometry.point import Point
from repro.graphs.unit_disk import build_charging_graph
from repro.pipeline import PlanningContext
from tests._legacy_geometry import (
    legacy_build_charging_graph,
    legacy_within_bulk,
)
from tests._legacy_graphs import assert_same_rows

LATTICE_M = 0.3
#: Lattice distances (3-4-5 and 5-12-13 multiples, axis steps) that
#: points on the 0.3 m lattice actually reach.
LATTICE_RADII = [LATTICE_M * k for k in (0, 1, 2, 5, 9, 10, 13, 15)]

_coord = st.integers(min_value=-30, max_value=30).map(
    lambda i: i * LATTICE_M
)
_points = st.lists(st.tuples(_coord, _coord), max_size=60)


def _rows_match(points, centers, radius_m):
    index = DiskIndex(dict(enumerate(points)))
    expected = legacy_within_bulk(index, centers, radius_m)
    assert index.within_bulk(centers, radius_m) == expected
    return expected


@settings(max_examples=150, deadline=None)
@given(
    points=_points,
    centers=_points,
    radius_m=st.sampled_from(LATTICE_RADII),
)
@example(
    points=[(0.0, 0.0), (1.2908828103117176, 2.3714176287701254)],
    centers=[(0.0, 0.0), (1.2908828103117176, 2.3714176287701254)],
    radius_m=2.7,
)
@example(points=[], centers=[(0.0, 0.0)], radius_m=1.5)
@example(points=[(0.0, 0.0)], centers=[], radius_m=1.5)
@example(points=[(0.3, -0.6)] * 3, centers=[(0.3, -0.6)], radius_m=0.0)
def test_lattice_rows_match_broadcast(points, centers, radius_m):
    _rows_match(points, centers, radius_m)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=0, max_value=300),
    radius_m=st.floats(min_value=0.0, max_value=20.0),
)
def test_random_field_rows_match_broadcast(seed, n, radius_m):
    rng = np.random.default_rng(seed)
    pts = [tuple(p) for p in rng.uniform(-50.0, 50.0, size=(n, 2)).tolist()]
    _rows_match(pts, pts, radius_m)


def test_lattice_ties_actually_occur():
    # On the lattice with the 3-4-5 radius, some pair sits exactly on
    # the boundary: the oracle sees d == r, not just d < r.
    pts = [(i * LATTICE_M, j * LATTICE_M) for i in range(8) for j in range(8)]
    coords = np.asarray(pts)
    d = np.hypot(
        coords[:, 0, None] - coords[None, :, 0],
        coords[:, 1, None] - coords[None, :, 1],
    )
    assert np.any(d == 1.5)  # repro-lint: disable=float-eq
    _rows_match(pts, pts, 1.5)


def test_dense_paper_instance_matches_oracle():
    """One n=5000 paper field: G_c edges (in order) and
    the coverage rows equal the broadcast oracle's."""
    params = PaperParams(num_sensors=5000)
    net = make_instance(params, 1)
    positions = net.positions()
    radius_m = params.charger().charge_radius_m
    graph = build_charging_graph(positions, radius_m)
    oracle = legacy_build_charging_graph(positions, radius_m)
    assert_same_rows(graph, oracle)
    assert graph.number_of_edges() > 10_000

    requests = net.all_sensor_ids()
    ctx = PlanningContext(net, requests, params.charger())
    candidates = ctx.sojourn_candidates()
    coverage = ctx.coverage_for(candidates)
    index = DiskIndex({t: positions[t] for t in ctx.requests})
    rows = legacy_within_bulk(
        index, [positions[c] for c in candidates], radius_m
    )
    for cand, row in zip(candidates, rows):
        assert coverage[cand] == frozenset(row) | {cand}


def test_negative_radius_rejected_like_oracle():
    index = DiskIndex({0: (0.0, 0.0)})
    with pytest.raises(ValueError, match="non-negative"):
        index.pairs_within([(0.0, 0.0)], -1.0)


def test_duplicate_node_subset_matches_oracle():
    rng = np.random.default_rng(4)
    positions = {
        i: Point(float(x), float(y))
        for i, (x, y) in enumerate(rng.uniform(0, 15, size=(60, 2)))
    }
    nodes = [5, 3, 5, 40, 3, 12, 7, 7, 59]
    graph = build_charging_graph(positions, 2.7, nodes=nodes)
    oracle = legacy_build_charging_graph(positions, 2.7, nodes=nodes)
    assert_same_rows(graph, oracle)
