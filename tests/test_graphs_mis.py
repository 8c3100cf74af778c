"""Unit tests for :mod:`repro.graphs.mis`."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.graphs.mis import (
    is_independent_set,
    is_maximal_independent_set,
    maximal_independent_set,
)
from repro.graphs.unit_disk import build_charging_graph
from tests._legacy_graphs import (
    assert_same_rows,
    nx_build_charging_graph,
    nx_maximal_independent_set,
    rows_from_edges,
)

STRATEGIES = ["min_degree", "lexicographic", "random"]


def rows_of(graph: nx.Graph):
    """A networkx generator's graph, built as rows."""
    return rows_from_edges(graph.nodes, graph.edges)


def path(n):
    return rows_from_edges(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return rows_from_edges(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return rows_from_edges(
        range(n), [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def star(leaves):
    return rows_from_edges(
        range(leaves + 1), [(0, i) for i in range(1, leaves + 1)]
    )


def empty(n):
    return rows_from_edges(range(n), [])


def sample_graphs():
    yield "path", path(10)
    yield "cycle", cycle(9)
    yield "complete", complete(6)
    yield "star", star(8)
    yield "empty", empty(7)
    yield "disconnected", rows_of(
        nx.union(nx.path_graph(4), nx.cycle_graph(range(10, 15)))
    )
    rng = np.random.default_rng(2)
    positions = {
        i: Point(float(x), float(y))
        for i, (x, y) in enumerate(rng.uniform(0, 40, size=(120, 2)))
    }
    yield "unit_disk", build_charging_graph(positions, radius_m=2.7)


class TestMaximalIndependentSet:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_result_is_maximal_independent(self, strategy):
        for name, graph in sample_graphs():
            mis = maximal_independent_set(graph, strategy=strategy, seed=1)
            assert is_maximal_independent_set(graph, mis), (name, strategy)

    def test_complete_graph_yields_one_node(self):
        mis = maximal_independent_set(complete(10))
        assert len(mis) == 1

    def test_empty_graph_yields_all_nodes(self):
        mis = maximal_independent_set(empty(5))
        assert mis == [0, 1, 2, 3, 4]

    def test_star_min_degree_picks_leaves(self):
        # Leaves have degree 1, hub degree 8: min-degree greedy takes
        # all leaves.
        mis = maximal_independent_set(star(8), strategy="min_degree")
        assert mis == list(range(1, 9))

    def test_lexicographic_deterministic(self):
        graph = cycle(11)
        a = maximal_independent_set(graph, strategy="lexicographic")
        b = maximal_independent_set(graph, strategy="lexicographic")
        assert a == b

    def test_random_seeded_deterministic(self):
        graph = cycle(30)
        a = maximal_independent_set(graph, strategy="random", seed=5)
        b = maximal_independent_set(graph, strategy="random", seed=5)
        assert a == b

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown MIS strategy"):
            maximal_independent_set(path(3), strategy="bogus")

    def test_result_sorted(self):
        mis = maximal_independent_set(cycle(20), strategy="random",
                                      seed=3)
        assert mis == sorted(mis)

    def test_min_degree_no_smaller_than_half_lexicographic_on_paths(self):
        """On a path, min-degree greedy finds the maximum independent
        set (alternating nodes)."""
        graph = path(15)
        mis = maximal_independent_set(graph, strategy="min_degree")
        assert len(mis) == 8


class TestPredicates:
    def test_is_independent_set(self):
        graph = path(5)
        assert is_independent_set(graph, [0, 2, 4])
        assert not is_independent_set(graph, [0, 1])

    def test_nodes_outside_graph(self):
        assert not is_independent_set(path(3), [0, 99])

    def test_maximality(self):
        graph = path(5)
        assert is_maximal_independent_set(graph, [0, 2, 4])
        # Independent but not maximal: node 4 could be added.
        assert not is_maximal_independent_set(graph, [0, 2])

    def test_empty_set_on_empty_graph(self):
        assert is_maximal_independent_set(empty(0), [])


class TestGeneratorShapesMatchNetworkx:
    """The hand-built rows are the networkx generators' graphs."""

    @pytest.mark.parametrize(
        "rows, graph",
        [
            (path(10), nx.path_graph(10)),
            (cycle(9), nx.cycle_graph(9)),
            (complete(6), nx.complete_graph(6)),
            (star(8), nx.star_graph(8)),
            (empty(7), nx.empty_graph(7)),
        ],
    )
    def test_same_rows(self, rows, graph):
        assert rows.nodes == tuple(graph.nodes)
        for node in graph.nodes:
            assert rows.neighbors(node) == tuple(sorted(graph.adj[node]))
        assert rows.number_of_edges() == graph.number_of_edges()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=0, max_value=150),
    side_m=st.sampled_from([5.0, 20.0, 60.0]),
    radius_m=st.floats(min_value=0.1, max_value=8.0),
    strategy=st.sampled_from(STRATEGIES),
)
def test_rows_and_mis_match_networkx_oracle(seed, n, side_m, radius_m, strategy):
    """G_c as rows equals the networkx build, and every MIS strategy
    picks the same set on both."""
    rng = np.random.default_rng(seed)
    positions = {
        i: Point(float(x), float(y))
        for i, (x, y) in enumerate(rng.uniform(0, side_m, size=(n, 2)))
    }
    rows = build_charging_graph(positions, radius_m)
    oracle = nx_build_charging_graph(positions, radius_m)
    assert_same_rows(rows, oracle)
    mis = maximal_independent_set(rows, strategy=strategy, seed=seed % 7)
    assert mis == nx_maximal_independent_set(oracle, strategy, seed % 7)
    assert is_maximal_independent_set(rows, mis)
