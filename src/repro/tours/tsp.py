"""TSP tour constructions over sojourn locations.

The ``K``-optimal closed tour subroutine first builds a single closed
tour through all locations, then splits it. :func:`build_tsp_order` is
the front door to four constructions; each yields a *visit order* — the
real nodes, starting with the first one after leaving the depot:

* ``"nearest_neighbor"`` — O(n²), good average quality
  (:func:`repro.tours.arrays.nearest_neighbor_indices`);
* ``"greedy_edge"`` — O(n² log n) greedy edge matching
  (:func:`repro.tours.arrays.greedy_edge_indices`);
* ``"double_mst"`` — the classic 2-approximation (MST preorder,
  :func:`double_mst_tour`);
* ``"christofides"`` — the 1.5-approximation via networkx's
  implementation (min-weight matching on odd-degree MST nodes,
  :func:`christofides_tour`).

The two graph-based constructions run in a label space where the depot
is the sentinel :data:`DEPOT`.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence

import networkx as nx

from repro.geometry.distcache import DistanceCache
from repro.geometry.point import PointLike
from repro.tours.arrays import (
    ArrayDistance,
    greedy_edge_indices,
    nearest_neighbor_indices,
)

#: Sentinel id for the depot inside TSP constructions. Sensor ids are
#: non-negative integers, so the sentinel can never collide.
DEPOT: Hashable = "DEPOT"

_METHODS = ("nearest_neighbor", "greedy_edge", "double_mst", "christofides")

#: A pairwise distance lookup over node labels.
DistanceFn = Callable[[Hashable, Hashable], float]


def _distance_lookup(
    positions: Mapping[Hashable, PointLike],
    dist: Optional[DistanceFn] = None,
) -> DistanceFn:
    return dist if dist is not None else DistanceCache(positions)


def _translate_depot(dist: DistanceFn) -> DistanceFn:
    """Adapt a ``None``-is-depot lookup to the :data:`DEPOT` sentinel."""

    def inner(a: Hashable, b: Hashable) -> float:
        return dist(None if a == DEPOT else a, None if b == DEPOT else b)

    return inner


def _complete_graph(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    dist: Optional[DistanceFn] = None,
) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    dist = _distance_lookup(positions, dist)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            graph.add_edge(a, b, weight=dist(a, b))
    return graph


def double_mst_tour(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    start: Hashable,
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """The MST-doubling 2-approximation: preorder walk of a minimum
    spanning tree rooted at ``start``.

    ``dist`` is accepted for interface uniformity but unused: the MST
    runs on a vectorised dense matrix, not pairwise lookups.

    The MST is computed with scipy's sparse-graph routine on the dense
    distance matrix — O(n²) memory but far faster than building a
    complete ``networkx`` graph for the hundreds-of-nodes instances the
    simulator produces.
    """
    all_nodes = list(dict.fromkeys(list(nodes) + [start]))
    if len(all_nodes) <= 2:
        return all_nodes if all_nodes[0] == start else all_nodes[::-1]
    import numpy as np
    from scipy.sparse.csgraph import minimum_spanning_tree as _scipy_mst

    coords = np.asarray(
        [(positions[n][0], positions[n][1]) for n in all_nodes], dtype=float
    )
    deltas = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((deltas**2).sum(axis=2))
    mst_matrix = _scipy_mst(dist).tocoo()
    mst = nx.Graph()
    mst.add_nodes_from(range(len(all_nodes)))
    for i, j in zip(mst_matrix.row, mst_matrix.col):
        mst.add_edge(int(i), int(j))
    order_idx = nx.dfs_preorder_nodes(mst, source=all_nodes.index(start))
    return [all_nodes[i] for i in order_idx]


def christofides_tour(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    start: Hashable,
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """Christofides' 1.5-approximation (networkx implementation),
    rotated to begin with ``start``.

    Falls back to :func:`double_mst_tour` for instances too small for
    the matching step.
    """
    all_nodes = list(dict.fromkeys(list(nodes) + [start]))
    if len(all_nodes) <= 3:
        return double_mst_tour(nodes, positions, start)
    cycle = nx.approximation.christofides(
        _complete_graph(all_nodes, positions, dist)
    )
    # networkx returns a closed walk with the first node repeated last.
    order = cycle[:-1]
    pivot = order.index(start)
    return order[pivot:] + order[:pivot]


def build_tsp_order(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    method: str = "christofides",
    dist: Optional[DistanceCache] = None,
) -> List[Hashable]:
    """Build a closed tour through ``nodes`` rooted at the depot.

    The returned order lists only the real nodes, in visit order
    starting with the first node after leaving the depot.

    ``dist`` is a depot-carrying cache (``None`` label = depot), built
    from ``positions`` and ``depot`` when omitted; the graph-based
    constructions see it translated to the :data:`DEPOT` sentinel.

    Raises:
        ValueError: on an unknown method, a depot-less ``dist`` or
            duplicate nodes.
    """
    if method not in _METHODS:
        raise ValueError(
            f"unknown TSP method {method!r}; expected one of {_METHODS}"
        )
    node_list = list(nodes)
    if not node_list:
        return []
    if len(node_list) == 1:
        return node_list
    if dist is None:
        dist = DistanceCache(positions, depot)
    if method in ("nearest_neighbor", "greedy_edge"):
        # The codec indexes the nodes in positional order, depot last;
        # greedy-edge breaks distance ties by that (i, j) order.
        dense = ArrayDistance.from_cache(dist, node_list)
        kernel = {
            "nearest_neighbor": nearest_neighbor_indices,
            "greedy_edge": greedy_edge_indices,
        }[method]
        return dense.codec.decode(kernel(dense))
    pos: Dict[Hashable, PointLike] = {n: positions[n] for n in node_list}
    pos[DEPOT] = depot
    builder = {
        "double_mst": double_mst_tour,
        "christofides": christofides_tour,
    }[method]
    cycle = builder(node_list + [DEPOT], pos, DEPOT, _translate_depot(dist))
    assert cycle[0] == DEPOT
    return cycle[1:]
