"""Unit tests for :mod:`repro.tours.tsp`."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.tours.improve import cycle_travel_length
from repro.tours.tsp import build_tsp_order
from tests._legacy_tours import (
    DEPOT,
    christofides_tour,
    double_mst_tour,
    greedy_edge_tour,
    nearest_neighbor_tour,
)

METHODS = ["nearest_neighbor", "greedy_edge", "double_mst", "christofides"]


def random_instance(seed, n):
    rng = np.random.default_rng(seed)
    return {
        i: Point(float(x), float(y))
        for i, (x, y) in enumerate(rng.uniform(0, 100, size=(n, 2)))
    }


class TestBuildTspOrder:
    @pytest.mark.parametrize("method", METHODS)
    def test_is_permutation(self, method):
        positions = random_instance(seed=1, n=30)
        order = build_tsp_order(
            list(positions), positions, Point(50, 50), method=method
        )
        assert sorted(order) == sorted(positions)

    @pytest.mark.parametrize("method", METHODS)
    def test_depot_not_in_order(self, method):
        positions = random_instance(seed=2, n=12)
        order = build_tsp_order(
            list(positions), positions, Point(0, 0), method=method
        )
        assert DEPOT not in order

    def test_empty(self):
        assert build_tsp_order([], {}, Point(0, 0)) == []

    def test_single_node(self):
        positions = {7: Point(1, 1)}
        assert build_tsp_order([7], positions, Point(0, 0)) == [7]

    def test_two_nodes(self):
        positions = {1: Point(1, 0), 2: Point(2, 0)}
        order = build_tsp_order([1, 2], positions, Point(0, 0))
        assert sorted(order) == [1, 2]

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown TSP method"):
            build_tsp_order([1], {1: Point(0, 0)}, Point(0, 0), method="x")

    @pytest.mark.parametrize("method", METHODS)
    def test_collinear_points(self, method):
        positions = {i: Point(float(i), 0.0) for i in range(1, 8)}
        order = build_tsp_order(
            list(positions), positions, Point(0, 0), method=method
        )
        assert sorted(order) == list(range(1, 8))

    @pytest.mark.parametrize("method", ["double_mst", "christofides"])
    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_points_stacked_on_the_depot_are_all_visited(
        self, method, count
    ):
        """With every point at one spot the distance matrix is all
        zeros, which scipy's MST reads as no edge at all; the walk must
        still visit every node."""
        nodes = list(range(1, count + 1))
        positions = {v: Point(9.0, 9.0) for v in nodes}
        order = build_tsp_order(nodes, positions, Point(9.0, 9.0), method)
        assert sorted(order) == nodes

    def test_double_mst_keeps_zero_length_edges(self):
        """Two points on the depot and two on one spot: without the
        zero-length edges the tree is not minimal, and the walk came
        out 10 m long against a 4 m optimum, past the factor 2."""
        positions = {
            0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0),
            3: (2.0, 0.0), 4: (0.0, 0.0),
        }
        order = build_tsp_order(
            [0, 1, 2, 4, 3], positions, (0.0, 0.0), "double_mst"
        )
        assert sorted(order) == [0, 1, 2, 3, 4]
        assert cycle_travel_length(order, positions, (0.0, 0.0)) == 4.0

    def test_tour_quality_sane(self):
        """All constructions stay within a small factor of the best
        construction found (sanity, not a strict approximation test)."""
        positions = random_instance(seed=3, n=40)
        depot = Point(50, 50)
        lengths = {}
        for method in METHODS:
            order = build_tsp_order(list(positions), positions, depot, method)
            lengths[method] = cycle_travel_length(order, positions, depot)
        best = min(lengths.values())
        for method, length in lengths.items():
            assert length <= 2.5 * best, (method, lengths)


class TestIndividualConstructions:
    """The label-space constructions kept as the oracle in
    ``tests/_legacy_tours.py``."""

    def test_nearest_neighbor_starts_at_start(self):
        positions = random_instance(seed=4, n=10)
        positions["s"] = Point(0, 0)
        cycle = nearest_neighbor_tour(list(positions), positions, "s")
        assert cycle[0] == "s"
        assert sorted(map(str, cycle)) == sorted(map(str, positions))

    def test_nearest_neighbor_greedy_property(self):
        # On a line, NN from the left end visits in order.
        positions = {i: Point(float(i), 0.0) for i in range(5)}
        cycle = nearest_neighbor_tour(list(positions), positions, 0)
        assert cycle == [0, 1, 2, 3, 4]

    def test_greedy_edge_cycle_valid(self):
        positions = random_instance(seed=5, n=25)
        positions["s"] = Point(50, 50)
        cycle = greedy_edge_tour(list(positions), positions, "s")
        assert cycle[0] == "s"
        assert len(cycle) == len(positions)
        assert len(set(map(str, cycle))) == len(positions)

    def test_double_mst_valid(self):
        positions = random_instance(seed=6, n=25)
        positions["s"] = Point(50, 50)
        cycle = double_mst_tour(list(positions), positions, "s")
        assert cycle[0] == "s"
        assert len(set(map(str, cycle))) == len(positions)

    def test_christofides_valid(self):
        positions = random_instance(seed=7, n=20)
        positions["s"] = Point(50, 50)
        cycle = christofides_tour(list(positions), positions, "s")
        assert cycle[0] == "s"
        assert len(set(map(str, cycle))) == len(positions)

    def test_christofides_small_fallback(self):
        positions = {1: Point(0, 1), 2: Point(1, 0)}
        cycle = christofides_tour([1, 2], positions, 1)
        assert cycle[0] == 1


def test_tours_package_does_not_import_networkx():
    """Every construction runs on the dense matrix; networkx is only
    the test oracle."""
    tours = Path(__file__).parents[1] / "src" / "repro" / "tours"
    sources = sorted(tours.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(
                name.split(".")[0] == "networkx" for name in names
            ), path.name
