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
    assert not graph.has_edge(0, 1)
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
