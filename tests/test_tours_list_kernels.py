"""The list and numpy paths of the local searches make the same moves.

:func:`repro.tours.arrays.two_opt_indices` and
:func:`repro.tours.arrays.or_opt_indices` scan tours of up to
``_TWO_OPT_LIST_MAX`` / ``_OR_OPT_LIST_MAX`` nodes on Python lists and
longer ones with numpy rows (DESIGN §16). Here both paths run on the
same seeded tours at sizes on both sides of each threshold — uniform
fields, exact-tie lattices and coincident points — and must return the
same order, which must also be the scalar oracle's
(``tests/_legacy_tours.py``).

Also pinned: Christofides' two-odd-vertex matching against the
blossom, the per-size Kruskal pair cache against NetworkX, and
``backbone_order`` on one dense matrix against the three stages each
building their own.
"""

import random

import numpy as np
import pytest

from repro.geometry.distcache import DistanceCache
from repro.tours.arrays import (
    _OR_OPT_BLOCK,
    _OR_OPT_LIST_MAX,
    _TWO_OPT_LIST_MAX,
    ArrayDistance,
    _or_opt_blocks,
    _or_opt_lists,
    _two_opt_lists,
    _two_opt_rows,
    or_opt_indices,
    two_opt_indices,
)
from repro.tours.christofides import (
    _CACHED_PAIRS_MAX,
    _kruskal_adjacency,
    _max_weight_matching,
    _min_weight_perfect_matching,
    _upper_pairs,
    christofides_indices,
)
from repro.tours import christofides
from repro.tours.improve import or_opt, two_opt
from repro.tours.kminmax import (
    _IMPROVE_MAX_NODES,
    backbone_order,
    backbone_policy,
    solve_k_minmax_tours,
)
from repro.tours.tsp import build_tsp_order
from tests._legacy_tours import (
    legacy_build_tsp_order,
    legacy_or_opt,
    legacy_two_opt,
)

KINDS = ("uniform", "lattice", "coincident")


def field(kind, seed, n):
    """``n`` labelled points and a depot.

    ``lattice`` picks distinct cells of a unit lattice (many legs and
    move gains tie exactly); ``coincident`` draws every point, the
    depot included, from four spots (zero legs, whole rows of equal
    entries).
    """
    rng = random.Random(f"{kind}-{seed}-{n}")
    if kind == "uniform":
        points = [
            (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
            for _ in range(n + 1)
        ]
    elif kind == "lattice":
        side = int(n**0.5) + 2
        cells = [(float(a), float(b)) for a in range(side) for b in range(side)]
        points = rng.sample(cells, n + 1)
    else:
        spots = [(0.0, 0.0), (3.0, 4.0), (3.0, 0.0), (10.0, 10.0)]
        points = [rng.choice(spots) for _ in range(n + 1)]
    positions = {10 * i + 7: points[i] for i in range(n)}
    return positions, points[n]


def start_tour(kind, seed, n):
    """A field, its dense matrix in label order, and a starting tour in
    index space: nearest-neighbour, so the searches converge in a few
    rounds, with one seeded segment reversed so they have work to do."""
    positions, depot = field(kind, seed, n)
    dist = DistanceCache(positions, depot)
    labels = list(positions)
    dense = ArrayDistance.from_cache(dist, labels)
    order = dense.codec.encode(
        build_tsp_order(labels, positions, depot, "nearest_neighbor", dist=dist)
    )
    rng = random.Random(seed)
    if n >= 4:
        i = rng.randrange(n - 2)
        j = rng.randrange(i + 2, n + 1)
        order[i:j] = order[i:j][::-1].copy()
    return positions, depot, dist, dense, order


def around(limit):
    return sorted({3, 5, 8, limit - 1, limit, limit + 1, limit + 9})


class TestTwoOptPaths:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", around(_TWO_OPT_LIST_MAX))
    def test_list_and_rows_agree_with_the_oracle(self, n, kind, seed):
        positions, depot, dist, dense, order = start_tour(kind, seed, n)
        matrix, depot_index = dense.matrix, dense.codec.depot_index
        by_list = _two_opt_lists(
            matrix.tolist(), depot_index, order.tolist(), 30, 1e-9
        )
        by_rows = _two_opt_rows(matrix, depot_index, order.copy(), 30, 1e-9)
        assert by_list == by_rows.tolist()
        chosen = two_opt_indices(matrix, depot_index, order)
        assert chosen.dtype == np.int32
        assert chosen.tolist() == by_list
        legacy = legacy_two_opt(
            dense.codec.decode(order), positions, depot, dist=dist
        )
        assert dense.codec.decode(by_list) == legacy

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [12, _TWO_OPT_LIST_MAX + 4])
    def test_round_cap_and_gain_are_honoured(self, n, kind):
        positions, depot, dist, dense, order = start_tour(kind, 5, n)
        matrix, depot_index = dense.matrix, dense.codec.depot_index
        by_list = _two_opt_lists(
            matrix.tolist(), depot_index, order.tolist(), 1, 0.0
        )
        by_rows = _two_opt_rows(matrix, depot_index, order.copy(), 1, 0.0)
        assert by_list == by_rows.tolist()
        legacy = legacy_two_opt(
            dense.codec.decode(order), positions, depot,
            max_rounds=1, min_gain=0.0, dist=dist,
        )
        assert dense.codec.decode(by_list) == legacy

    def test_the_searches_move_something(self):
        moved = 0
        for n in around(_TWO_OPT_LIST_MAX):
            _, _, _, dense, order = start_tour("uniform", 0, n)
            got = two_opt_indices(dense.matrix, dense.codec.depot_index, order)
            moved += got.tolist() != order.tolist()
        assert moved >= 5


class TestOrOptPaths:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "n", sorted({2, 4, *around(_OR_OPT_LIST_MAX), _OR_OPT_BLOCK + 6})
    )
    def test_list_and_blocks_agree_with_the_oracle(self, n, kind, seed):
        positions, depot, dist, dense, order = start_tour(kind, seed, n)
        matrix, depot_index = dense.matrix, dense.codec.depot_index
        start = order.tolist()
        by_list = _or_opt_lists(
            matrix.tolist(), depot_index, list(start), (1, 2, 3), 10, 1e-9
        )
        by_blocks = _or_opt_blocks(
            matrix, depot_index, list(start), (1, 2, 3), 10, 1e-9
        )
        assert by_list == by_blocks
        chosen = or_opt_indices(matrix, depot_index, order)
        assert chosen.dtype == np.int32
        assert chosen.tolist() == by_list
        legacy = legacy_or_opt(
            dense.codec.decode(start), positions, depot, dist=dist
        )
        assert dense.codec.decode(by_list) == legacy

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [9, _OR_OPT_LIST_MAX + 3])
    def test_segment_lengths_rounds_and_gain(self, n, kind):
        positions, depot, dist, dense, order = start_tour(kind, 4, n)
        matrix, depot_index = dense.matrix, dense.codec.depot_index
        start = order.tolist()
        for lengths, rounds, gain in [((1,), 1, 0.0), ((3, 1), 2, 1e-6)]:
            by_list = _or_opt_lists(
                matrix.tolist(), depot_index, list(start), lengths, rounds,
                gain,
            )
            by_blocks = _or_opt_blocks(
                matrix, depot_index, list(start), lengths, rounds, gain
            )
            assert by_list == by_blocks
            legacy = legacy_or_opt(
                dense.codec.decode(start), positions, depot,
                segment_lengths=lengths, max_rounds=rounds, min_gain=gain,
                dist=dist,
            )
            assert dense.codec.decode(by_list) == legacy

    def test_the_searches_move_something(self):
        moved = 0
        for n in around(_OR_OPT_LIST_MAX):
            _, _, _, dense, order = start_tour("uniform", 1, n)
            start = order.tolist()
            got = or_opt_indices(dense.matrix, dense.codec.depot_index, order)
            moved += got.tolist() != start
        assert moved >= 3


def blossom_pairs(dist, odd):
    """The matching the blossom picks, as ``_min_weight_perfect_matching``
    builds it for four or more odd vertices."""
    maxw = 1 + max(dist[u][v] for i, u in enumerate(odd) for v in odd[i + 1:])
    weights = [[maxw - dist[u][v] for v in odd] for u in odd]
    mate = _max_weight_matching(weights)
    return [(v, w) for v, w in enumerate(mate) if v < w]


class TestTwoOddVertices:
    @pytest.mark.parametrize("seed", range(40))
    def test_pair_is_the_blossoms_matching(self, seed):
        rng = random.Random(seed)
        size = rng.randint(2, 9)
        value = rng.choice(
            [0.0, 1e-300, 1.0, rng.uniform(0.0, 1e3), 1e300, 7.25]
        )
        dist = [[value] * size for _ in range(size)]
        odd = sorted(rng.sample(range(size), 2))
        assert _min_weight_perfect_matching(dist, odd) == [(0, 1)]
        assert blossom_pairs(dist, odd) == [(0, 1)]

    def test_a_path_tree_skips_the_blossom(self, monkeypatch):
        """Nodes on a ray from the depot: the tree is a path, whose two
        ends are the only odd vertices. The tour is NetworkX's without
        ever entering the blossom."""
        positions = {k: (2.0 * k, 1.0) for k in range(1, 9)}
        depot = (0.0, 1.0)
        dist = DistanceCache(positions, depot)
        labels = list(positions)
        dense = ArrayDistance.from_cache(dist, labels)

        def refuse(weights):
            raise AssertionError("the blossom ran for two odd vertices")

        monkeypatch.setattr(christofides, "_max_weight_matching", refuse)
        got = dense.codec.decode(christofides_indices(dense.matrix))
        assert got == legacy_build_tsp_order(
            labels, positions, depot, "christofides", dist=dist
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_four_or_more_still_take_the_blossom(self, seed):
        rng = random.Random(seed)
        size = 6
        dist = [[0.0] * size for _ in range(size)]
        for u in range(size):
            for v in range(u + 1, size):
                dist[u][v] = dist[v][u] = float(rng.randint(1, 3))
        odd = list(range(size))
        assert _min_weight_perfect_matching(dist, odd) == blossom_pairs(
            dist, odd
        )


class TestKruskalPairs:
    def test_pairs_are_triu_indices_shared_and_read_only(self):
        for size in (4, 9, _CACHED_PAIRS_MAX):
            rows, cols = _upper_pairs(size)
            want_rows, want_cols = np.triu_indices(size, k=1)
            assert np.array_equal(rows, want_rows)
            assert np.array_equal(cols, want_cols)
            assert not rows.flags.writeable and not cols.flags.writeable
            assert _upper_pairs(size)[0] is rows

    @pytest.mark.parametrize(
        "n", [_CACHED_PAIRS_MAX - 2, _CACHED_PAIRS_MAX - 1, _CACHED_PAIRS_MAX]
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_tours_match_networkx_across_the_cache_bound(self, kind, n):
        positions, depot = field(kind, 3, n)
        dist = DistanceCache(positions, depot)
        labels = list(positions)
        dense = ArrayDistance.from_cache(dist, labels)
        got = dense.codec.decode(christofides_indices(dense.matrix))
        assert got == legacy_build_tsp_order(
            labels, positions, depot, "christofides", dist=dist
        )

    def test_cached_and_fresh_pairs_build_the_same_tree(self, monkeypatch):
        _, _, _, dense, _ = start_tour("lattice", 2, 30)
        cached = _kruskal_adjacency(dense.matrix)
        monkeypatch.setattr(christofides, "_CACHED_PAIRS_MAX", 0)
        assert _kruskal_adjacency(dense.matrix) == cached


def three_call_backbone(nodes, positions, depot, tsp_method, improve):
    """The backbone as three stages each building their own matrix."""
    method, run_improve = backbone_policy(len(nodes), tsp_method, improve)
    order = build_tsp_order(
        nodes, positions, depot, method=method,
        dist=DistanceCache(positions, depot),
    )
    if run_improve:
        order = two_opt(
            order, positions, depot, dist=DistanceCache(positions, depot)
        )
        order = or_opt(
            order, positions, depot, dist=DistanceCache(positions, depot)
        )
    return order


class TestOneMatrixBackbone:
    @pytest.mark.parametrize("improve", [True, False])
    @pytest.mark.parametrize(
        "method",
        ["christofides", "greedy_edge", "nearest_neighbor", "double_mst"],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_three_separate_stages(self, kind, method, improve):
        for n in (1, 2, 3, 4, 8, 17, 40):
            positions, depot = field(kind, n, n)
            nodes = list(positions)
            random.Random(n).shuffle(nodes)
            got = backbone_order(
                nodes, positions, depot, method, improve,
                ArrayDistance.from_cache(
                    DistanceCache(positions, depot), nodes
                ),
            )
            assert got == three_call_backbone(
                nodes, positions, depot, method, improve
            ), n

    def test_builds_one_matrix_per_backbone(self, monkeypatch):
        """The backbone's three stages and the split's legs read one
        matrix."""
        built = []
        original = ArrayDistance.from_cache.__func__

        def counting(cls, dist, labels):
            built.append(len(labels))
            return original(cls, dist, labels)

        monkeypatch.setattr(ArrayDistance, "from_cache", classmethod(counting))
        positions, depot = field("uniform", 0, 12)
        solve_k_minmax_tours(
            list(positions), positions, depot, 2, 1.0, lambda v: 10.0,
        )
        assert built == [12]

    def test_a_dense_over_other_labels_is_rejected(self):
        positions, depot = field("uniform", 1, 6)
        dist = DistanceCache(positions, depot)
        nodes = list(positions)
        dense = ArrayDistance.from_cache(dist, nodes[::-1])
        with pytest.raises(ValueError, match="given order"):
            build_tsp_order(nodes, positions, depot, dist=dist, dense=dense)


def test_both_paths_of_each_search_are_reachable():
    """The list path runs below each threshold and numpy above it, on
    tours no longer than the planners improve."""
    assert 3 <= _OR_OPT_LIST_MAX < _TWO_OPT_LIST_MAX < _IMPROVE_MAX_NODES
