"""Pins today's two "within γ" rules on a pair where they disagree.

``G_c`` and the coverage sets ``N_c⁺(v)`` decide membership with
``np.hypot`` (:meth:`GridIndex.pairs_within`); ``GridIndex.within`` /
``neighbors_of`` and ``Point.distance_to`` use ``math.hypot``. The two
round differently on the pair below at γ = 2.7: ``np.hypot`` gives
exactly 2.7 (inside), ``math.hypot`` gives 2.7000000000000006
(outside). Which rule is right is an open decision; until it is made,
these tests keep either side from drifting silently.
"""

import math

import numpy as np

from repro.energy.charging import ChargerSpec
from repro.geometry.grid_index import GridIndex
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


def test_charging_graph_has_the_edge_with_weight_above_gamma():
    graph = build_charging_graph(POSITIONS, radius_m=GAMMA)
    assert graph.has_edge(0, 1)
    distance = POSITIONS[0].distance_to(POSITIONS[1])
    assert distance == 2.7000000000000006  # repro-lint: disable=float-eq
    assert distance > GAMMA


def test_coverage_sets_include_the_sensor():
    coverage = coverage_sets([0, 1], POSITIONS, radius_m=GAMMA)
    assert coverage == {0: frozenset({0, 1}), 1: frozenset({0, 1})}


def test_context_coverage_for_includes_the_sensor():
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
        0: frozenset({0, 1}),
        1: frozenset({0, 1}),
    }


def test_grid_index_within_excludes_the_sensor():
    index = GridIndex(POSITIONS, cell_size=GAMMA)
    assert index.within(ORIGIN, GAMMA) == [0]
    assert index.neighbors_of(0, GAMMA) == []
    # The bulk query on the same index follows the np.hypot rule.
    assert index.within_bulk([ORIGIN], GAMMA) == [[0, 1]]
