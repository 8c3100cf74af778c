"""Unit tests for :mod:`repro.graphs.unit_disk`."""

import numpy as np
import pytest

from repro.geometry.distance import euclidean
from repro.geometry.point import Point
from repro.graphs.unit_disk import build_charging_graph
from tests._legacy_graphs import (
    assert_same_rows,
    nx_build_charging_graph,
    nx_maximal_independent_set,
)


def has_edge(graph, u, v):
    return v in graph.neighbors(u)


class TestBuildChargingGraph:
    def test_edge_rule_inclusive(self):
        positions = {0: Point(0, 0), 1: Point(0, 2.7), 2: Point(0, 5.5)}
        graph = build_charging_graph(positions, radius_m=2.7)
        assert graph.neighbors(0) == (1,)  # exactly at gamma
        assert graph.neighbors(1) == (0,)  # 2 is 2.8 m away
        assert graph.neighbors(2) == ()

    def test_node_subset(self):
        positions = {0: Point(0, 0), 1: Point(1, 0), 2: Point(2, 0)}
        graph = build_charging_graph(positions, radius_m=2.7, nodes=[0, 2])
        assert graph.nodes == (0, 2)
        assert 1 not in graph
        assert graph.neighbors(0) == (2,)
        assert graph.neighbors(2) == (0,)

    def test_isolated_unsorted_nodes_sorted(self):
        positions = {7: Point(3, 4), 2: Point(50, 50), 5: Point(3, 5)}
        graph = build_charging_graph(positions, radius_m=1.0, nodes=[7, 2, 5])
        assert graph.nodes == (2, 5, 7)
        assert graph.neighbors(2) == ()  # isolated, still a node
        assert graph.degree(2) == 0
        assert graph.neighbors(5) == (7,)
        assert graph.number_of_edges() == 1

    def test_edges_carry_no_weight(self):
        positions = {0: Point(0, 0), 1: Point(1.5, 2.0)}
        graph = build_charging_graph(positions, radius_m=2.7)
        # A row holds bare neighbour ids: no per-edge data at all.
        assert graph.neighbors(0) == (1,)
        assert type(graph.neighbors(0)[0]) is int

    def test_rows_are_ascending_tuples(self):
        positions = {i: Point(0.5 * (4 - i), 0.0) for i in range(5)}
        graph = build_charging_graph(positions, radius_m=2.7)
        assert graph.neighbors(2) == (0, 1, 3, 4)
        assert graph.number_of_edges() == 10

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            build_charging_graph({0: Point(0, 0)}, radius_m=0.0)

    def test_empty(self):
        graph = build_charging_graph({}, radius_m=1.0)
        assert graph.number_of_nodes() == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        positions = {
            i: Point(float(x), float(y))
            for i, (x, y) in enumerate(rng.uniform(0, 30, size=(80, 2)))
        }
        graph = build_charging_graph(positions, radius_m=2.7)
        for i in positions:
            for j in positions:
                if i < j:
                    expected = euclidean(positions[i], positions[j]) <= 2.7
                    assert has_edge(graph, i, j) == expected
                    assert has_edge(graph, j, i) == expected


class TestBulkParity:
    """The pair-query construction is byte-identical to the loop one.

    The loop reference below tests every ``u < v`` pair with
    :func:`euclidean`, the repo's one distance rule; it is kept here,
    not in the library, purely as the parity oracle.
    """

    @staticmethod
    def _loop_reference(positions, radius_m, nodes=None):
        import networkx as nx

        node_list = sorted(positions) if nodes is None else sorted(nodes)
        graph = nx.Graph()
        for node in node_list:
            graph.add_node(node, pos=positions[node])
        for node in node_list:
            for other in node_list:
                if other > node and (
                    euclidean(positions[node], positions[other]) <= radius_m
                ):
                    graph.add_edge(node, other)
        return graph

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_graph_is_byte_identical_to_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        positions = {
            i: Point(float(x), float(y))
            for i, (x, y) in enumerate(rng.uniform(0, 60, size=(150, 2)))
        }
        bulk = build_charging_graph(positions, radius_m=2.7)
        loop = self._loop_reference(positions, radius_m=2.7)
        assert_same_rows(bulk, loop)
        assert_same_rows(bulk, nx_build_charging_graph(positions, 2.7))

    def test_downstream_mis_unchanged(self):
        from repro.graphs.mis import maximal_independent_set

        rng = np.random.default_rng(9)
        positions = {
            i: Point(float(x), float(y))
            for i, (x, y) in enumerate(rng.uniform(0, 40, size=(120, 2)))
        }
        bulk = build_charging_graph(positions, radius_m=2.7)
        loop = self._loop_reference(positions, radius_m=2.7)
        for strategy in ("min_degree", "lexicographic", "random"):
            assert maximal_independent_set(
                bulk, strategy=strategy
            ) == nx_maximal_independent_set(loop, strategy=strategy)
