"""Tests for :mod:`repro.tours.christofides` and the TSP guarantees.

The blossom port must give ``nx.approximation.christofides``'s tour
node for node (the networkx construction lives on as the oracle in
``tests/_legacy_tours.py``), including under exact distance ties and
zero-length edges. Christofides' 3/2 and the double-MST walk's 2 are
then checked on the emitted tours against Held–Karp's optimum.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distcache import DistanceCache
from repro.tours.arrays import ArrayDistance
from repro.tours.christofides import christofides_indices
from repro.tours.exact import held_karp_tsp
from repro.tours.improve import cycle_travel_length
from repro.tours.tsp import build_tsp_order
from tests._legacy_tours import legacy_build_tsp_order

coordinate = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
uniform_point = st.tuples(coordinate, coordinate)
lattice_point = st.tuples(
    st.integers(0, 5).map(lambda k: 5.0 * k),
    st.integers(0, 5).map(lambda k: 5.0 * k),
)
collinear_point = st.tuples(coordinate, st.just(0.0))


@st.composite
def instances(draw, min_nodes, max_nodes):
    """``(order, positions, depot)``: shuffled integer labels over
    uniform, lattice (tied distances), collinear or coincident points."""
    kind = draw(
        st.sampled_from(["uniform", "lattice", "collinear", "coincident"])
    )
    n = draw(st.integers(min_nodes, max_nodes))
    if kind == "coincident":
        sites = draw(
            st.lists(uniform_point, min_size=1, max_size=max(1, n // 3))
        )
        point = st.sampled_from(sites)
    else:
        point = {
            "uniform": uniform_point,
            "lattice": lattice_point,
            "collinear": collinear_point,
        }[kind]
    points = draw(st.lists(point, min_size=n + 1, max_size=n + 1))
    labels = draw(
        st.lists(
            st.integers(0, 10**6), min_size=n, max_size=n, unique=True
        )
    )
    order = draw(st.permutations(labels))
    positions = dict(zip(labels, points))
    return order, positions, points[-1]


def port_and_oracle(order, positions, depot):
    dist = DistanceCache(positions, depot)
    dense = ArrayDistance.from_cache(dist, order)
    port = dense.codec.decode(christofides_indices(dense.matrix))
    oracle = legacy_build_tsp_order(
        order, positions, depot, method="christofides", dist=dist
    )
    return port, oracle


class TestOracleParity:
    @settings(max_examples=60, deadline=None)
    @given(instances(3, 40))
    def test_matches_networkx(self, instance):
        port, oracle = port_and_oracle(*instance)
        assert port == oracle

    @settings(max_examples=8, deadline=None)
    @given(instances(41, 120))
    def test_matches_networkx_large(self, instance):
        port, oracle = port_and_oracle(*instance)
        assert port == oracle

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("shape", ["uniform", "square", "line", "stack"])
    def test_small_instances(self, n, shape):
        points = {
            "uniform": [(13.0, 7.0), (81.5, 22.0), (40.0, 95.0),
                        (66.0, 61.0), (5.0, 48.0)],
            "square": [(0.0, 0.0), (5.0, 0.0), (5.0, 5.0),
                       (0.0, 5.0), (10.0, 0.0)],
            "line": [(1.0, 0.0), (4.0, 0.0), (2.0, 0.0),
                     (9.0, 0.0), (3.0, 0.0)],
            "stack": [(2.0, 2.0), (2.0, 2.0), (7.0, 1.0),
                      (2.0, 2.0), (7.0, 1.0)],
        }[shape]
        positions = {10 * (k + 1): points[k] for k in range(n)}
        order = list(positions)[::-1]
        port, oracle = port_and_oracle(order, positions, (2.5, 2.5))
        assert port == oracle
        assert sorted(port) == sorted(positions)

    def test_tied_slacks_keep_the_first_minimum(self):
        """A 5 m lattice with stacked points where two free vertices tie
        for ``delta2``; the first one in vertex order must win."""
        points = [
            (20.0, 15.0), (15.0, 0.0), (20.0, 15.0), (10.0, 0.0),
            (10.0, 0.0), (10.0, 10.0), (15.0, 10.0), (20.0, 15.0),
            (10.0, 15.0), (0.0, 15.0), (20.0, 20.0), (15.0, 5.0),
            (5.0, 5.0), (5.0, 10.0), (15.0, 20.0), (5.0, 15.0),
            (0.0, 10.0),
        ]
        positions = dict(enumerate(points))
        port, oracle = port_and_oracle(list(positions), positions, (20.0, 0.0))
        assert port == oracle

    def test_needs_three_real_nodes(self):
        dense = ArrayDistance.from_cache(
            DistanceCache({1: (0.0, 1.0), 2: (1.0, 0.0)}, (0.0, 0.0)), [1, 2]
        )
        with pytest.raises(ValueError):
            christofides_indices(dense.matrix)


class TestApproximationBounds:
    """Each construction's factor against Held–Karp, before 2-opt."""

    @pytest.mark.parametrize(
        "method, factor", [("christofides", 1.5), ("double_mst", 2.0)]
    )
    @settings(max_examples=60, deadline=None)
    @given(instance=instances(1, 9))
    def test_tour_within_factor_of_optimum(self, method, factor, instance):
        order, positions, depot = instance
        dist = DistanceCache(positions, depot)
        tour = build_tsp_order(order, positions, depot, method, dist=dist)
        length = cycle_travel_length(tour, positions, depot, dist=dist)
        _, optimum = held_karp_tsp(order, positions, depot, dist=dist)
        assert length <= factor * optimum * (1.0 + 1e-9), (length, optimum)
