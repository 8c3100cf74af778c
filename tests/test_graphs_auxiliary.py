"""Unit tests for :mod:`repro.graphs.auxiliary`."""

import numpy as np
import pytest

from repro.core.ratio import delta_h_bound
from repro.geometry.point import Point
from repro.graphs.auxiliary import (
    auxiliary_max_degree,
    build_auxiliary_graph,
    conflict_free_components,
)
from repro.graphs.coverage import coverage_sets
from repro.graphs.mis import maximal_independent_set
from repro.graphs.unit_disk import build_charging_graph
from tests._legacy_graphs import (
    assert_same_rows,
    nx_build_auxiliary_graph,
    nx_maximal_independent_set,
    rows_from_edges,
)

GAMMA = 2.7


def has_edge(graph, u, v):
    return v in graph.neighbors(u)


def edges(graph):
    return [(u, v) for u in graph.nodes for v in graph.neighbors(u) if u < v]


def make_instance(seed, n=200, side=40.0):
    rng = np.random.default_rng(seed)
    positions = {
        i: Point(float(x), float(y))
        for i, (x, y) in enumerate(rng.uniform(0, side, size=(n, 2)))
    }
    graph = build_charging_graph(positions, radius_m=GAMMA)
    mis = maximal_independent_set(graph)
    coverage = coverage_sets(mis, positions, radius_m=GAMMA)
    aux = build_auxiliary_graph(mis, coverage, positions, radius_m=GAMMA)
    return positions, mis, coverage, aux


class TestBuildAuxiliaryGraph:
    def test_edge_iff_disk_intersection(self):
        positions, mis, coverage, aux = make_instance(seed=0)
        for u in mis:
            for v in mis:
                if u < v:
                    expected = bool(coverage[u] & coverage[v])
                    assert has_edge(aux, u, v) == expected
                    assert has_edge(aux, v, u) == expected

    def test_edge_distance_range(self):
        """Every H-edge joins locations with gamma < d <= 2*gamma
        (independence gives the lower bound, shared coverage the
        upper)."""
        positions, mis, coverage, aux = make_instance(seed=1)
        for u, v in edges(aux):
            d = positions[u].distance_to(positions[v])
            assert d > GAMMA
            assert d <= 2 * GAMMA + 1e-9

    def test_shared_sensor_required_not_just_distance(self):
        # Two candidates 4 m apart (within 2*gamma) but no sensor in
        # the lens: no H edge.
        positions = {0: Point(0, 0), 1: Point(4.0, 0)}
        coverage = coverage_sets([0, 1], positions, radius_m=GAMMA)
        aux = build_auxiliary_graph([0, 1], coverage, positions, GAMMA)
        assert aux.neighbors(0) == ()

        # Add a sensor in the lens: edge appears.
        positions[2] = Point(2.0, 0)
        coverage = coverage_sets([0, 1], positions, radius_m=GAMMA)
        aux = build_auxiliary_graph([0, 1], coverage, positions, GAMMA)
        assert aux.neighbors(0) == (1,)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            build_auxiliary_graph([], {}, {}, radius_m=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_match_networkx_oracle(self, seed):
        positions, mis, coverage, aux = make_instance(seed=seed)
        oracle = nx_build_auxiliary_graph(mis, coverage, positions, GAMMA)
        assert_same_rows(aux, oracle)
        for strategy in ("min_degree", "lexicographic", "random"):
            assert maximal_independent_set(
                aux, strategy=strategy, seed=seed
            ) == nx_maximal_independent_set(oracle, strategy, seed)


class TestMaxDegree:
    def test_empty_graph(self):
        assert auxiliary_max_degree(rows_from_edges([], [])) == 0

    def test_matches_networkx_degree(self):
        positions, mis, coverage, aux = make_instance(seed=4, n=300)
        oracle = nx_build_auxiliary_graph(mis, coverage, positions, GAMMA)
        assert auxiliary_max_degree(aux) == max(
            dict(oracle.degree).values()
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lemma2_bound_holds(self, seed):
        """Lemma 2: Delta_H <= ceil(8*pi) = 26 on every instance."""
        _, _, _, aux = make_instance(seed=seed, n=300, side=35.0)
        assert auxiliary_max_degree(aux) <= delta_h_bound()


class TestConflictFreeComponents:
    def test_mis_of_h_has_singleton_components(self):
        _, mis, coverage, aux = make_instance(seed=2)
        core = maximal_independent_set(aux)
        comp = conflict_free_components(aux, core)
        # Independent in H => no two chosen nodes share a component
        # edge; each is its own component.
        assert len(set(comp.values())) == len(core)

    def test_components_partition_chosen(self):
        _, mis, coverage, aux = make_instance(seed=3)
        comp = conflict_free_components(aux, mis)
        assert set(comp) == set(mis)

    def test_components_numbered_by_smallest_member(self):
        # Two paths and an isolated node; 9 is not in H and 4 is not
        # chosen, so {3, 5} split.
        graph = rows_from_edges(
            range(9), [(7, 1), (1, 6), (3, 4), (4, 5), (0, 8)]
        )
        comp = conflict_free_components(graph, [6, 5, 1, 3, 7, 2, 9])
        assert comp == {1: 0, 6: 0, 7: 0, 2: 1, 3: 2, 5: 3}
