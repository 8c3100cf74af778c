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

Christofides runs in a label space where the depot is the sentinel
:data:`DEPOT`; the other three run on the cache's dense matrix
(:class:`repro.tours.arrays.ArrayDistance`), depot last.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree

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

    The MST is computed with scipy's sparse-graph routine on the dense
    matrix of ``dist`` lookups (a :class:`DistanceCache` over
    ``positions`` when omitted) — O(n²) memory but far faster than
    building a complete ``networkx`` graph for the hundreds-of-nodes
    instances the simulator produces.
    """
    all_nodes = list(dict.fromkeys(list(nodes) + [start]))
    if len(all_nodes) <= 2:
        return all_nodes if all_nodes[0] == start else all_nodes[::-1]
    dist = _distance_lookup(positions, dist)
    matrix = np.zeros((len(all_nodes), len(all_nodes)))
    for i, a in enumerate(all_nodes):
        matrix[i, i + 1:] = [dist(a, b) for b in all_nodes[i + 1:]]
    matrix += matrix.T
    order_idx = _mst_preorder(matrix, all_nodes.index(start))
    return [all_nodes[i] for i in order_idx]


def _mst_preorder(matrix: np.ndarray, root: int) -> List[int]:
    """Preorder walk from ``root`` of the minimum spanning tree of a
    dense symmetric distance matrix (zero entries are no edge)."""
    mst_matrix = minimum_spanning_tree(matrix).tocoo()
    mst = nx.Graph()
    mst.add_nodes_from(range(len(matrix)))
    for i, j in zip(mst_matrix.row, mst_matrix.col):
        mst.add_edge(int(i), int(j))
    return list(nx.dfs_preorder_nodes(mst, source=root))


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
        return double_mst_tour(nodes, positions, start, dist)
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
    from ``positions`` and ``depot`` when omitted; Christofides sees it
    translated to the :data:`DEPOT` sentinel.

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
    if method != "christofides":
        # The codec indexes the nodes in positional order, depot last;
        # greedy-edge breaks distance ties by that (i, j) order, and the
        # MST walk is double_mst_tour's over node_list + [DEPOT].
        dense = ArrayDistance.from_cache(dist, node_list)
        if method == "double_mst":
            walk = _mst_preorder(dense.matrix, dense.codec.depot_index)
            return dense.codec.decode(walk[1:])
        kernel = {
            "nearest_neighbor": nearest_neighbor_indices,
            "greedy_edge": greedy_edge_indices,
        }[method]
        return dense.codec.decode(kernel(dense))
    pos: Dict[Hashable, PointLike] = {n: positions[n] for n in node_list}
    pos[DEPOT] = depot
    cycle = christofides_tour(
        node_list + [DEPOT], pos, DEPOT, _translate_depot(dist)
    )
    assert cycle[0] == DEPOT
    return cycle[1:]
