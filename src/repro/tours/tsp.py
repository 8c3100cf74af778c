"""TSP tour constructions over sojourn locations.

The ``K``-optimal closed tour subroutine first builds a single closed
tour through all locations, then splits it. :func:`build_tsp_order` is
the front door to four constructions; each yields a *visit order* — the
real nodes, starting with the first one after leaving the depot:

* ``"nearest_neighbor"`` — O(n²), good average quality
  (:func:`repro.tours.arrays.nearest_neighbor_indices`);
* ``"greedy_edge"`` — O(n² log n) greedy edge matching
  (:func:`repro.tours.arrays.greedy_edge_indices`);
* ``"double_mst"`` — the classic 2-approximation (preorder walk of
  scipy's minimum spanning tree, :func:`_mst_preorder`);
* ``"christofides"`` — the 1.5-approximation (min-weight perfect
  matching on the odd-degree MST nodes,
  :func:`repro.tours.christofides.christofides_indices`); instances
  with fewer than three nodes take the double-MST walk.

All four run on the cache's dense matrix
(:class:`repro.tours.arrays.ArrayDistance`), depot last, and return
byte for byte the tours of the NetworkX-based constructions kept as
the oracle in ``tests/_legacy_tours.py`` — except the double-MST walk
where points coincide, whose zero-length edges the oracle's tree
drops (:func:`_mst_preorder`).
"""

from __future__ import annotations

from typing import Hashable, List, Mapping, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.geometry.distcache import DistanceCache
from repro.geometry.point import PointLike
from repro.tours.arrays import (
    ArrayDistance,
    greedy_edge_indices,
    nearest_neighbor_indices,
)
from repro.tours.christofides import christofides_indices

_METHODS = ("nearest_neighbor", "greedy_edge", "double_mst", "christofides")


def _mst_preorder(matrix: np.ndarray, root: int) -> List[int]:
    """Preorder walk from ``root`` of the minimum spanning tree of a
    dense symmetric distance matrix.

    scipy reads a zero entry as "no edge" (and a dense entry within
    1e-8 of zero too), so the zero-length edges between coincident
    points (sensors on one spot, or on the depot) get the smallest
    positive float instead, and the matrix goes in as a sparse one,
    which scipy takes as it is. The tree is then a true minimum
    spanning tree, which the 2-approximation needs, and it always
    spans; without coincident points it is the one the dense matrix
    gives. Neighbours are visited in the order the tree's COO edges
    list them, the order NetworkX's ``dfs_preorder_nodes`` takes over a
    graph built from those edges.
    """
    weights = np.where(matrix > 0.0, matrix, np.nextafter(0.0, 1.0))
    np.fill_diagonal(weights, 0.0)
    mst = minimum_spanning_tree(csr_matrix(weights)).tocoo()
    adjacency: List[List[int]] = [[] for _ in range(len(matrix))]
    for i, j in zip(mst.row.tolist(), mst.col.tolist()):
        adjacency[i].append(j)
        adjacency[j].append(i)
    order = [root]
    visited = {root}
    stack = [iter(adjacency[root])]
    while stack:
        for child in stack[-1]:
            if child not in visited:
                visited.add(child)
                order.append(child)
                stack.append(iter(adjacency[child]))
                break
        else:
            stack.pop()
    return order


def build_tsp_order(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    method: str = "christofides",
    dist: Optional[DistanceCache] = None,
    dense: Optional[ArrayDistance] = None,
) -> List[Hashable]:
    """Build a closed tour through ``nodes`` rooted at the depot.

    The returned order lists only the real nodes, in visit order
    starting with the first node after leaving the depot.

    ``dist`` is a depot-carrying cache (``None`` label = depot), built
    from ``positions`` and ``depot`` when omitted. ``dense`` is the
    matrix over ``nodes`` in the given order, built from ``dist`` when
    omitted.

    Raises:
        ValueError: on an unknown method, a depot-less ``dist``,
            duplicate nodes, or a ``dense`` over other labels.
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
    # The codec indexes the nodes in positional order, depot last;
    # greedy-edge, Kruskal and the matching break distance ties by that
    # (i, j) order.
    if dense is None:
        if dist is None:
            dist = DistanceCache(positions, depot)
        dense = ArrayDistance.from_cache(dist, node_list)
    elif dense.codec.labels != tuple(node_list):
        raise ValueError("dense must index the nodes in their given order")
    if method == "christofides" and len(node_list) >= 3:
        return dense.codec.decode(christofides_indices(dense.matrix))
    if method in ("double_mst", "christofides"):
        walk = _mst_preorder(dense.matrix, dense.codec.depot_index)
        return dense.codec.decode(walk[1:])
    kernel = {
        "nearest_neighbor": nearest_neighbor_indices,
        "greedy_edge": greedy_edge_indices,
    }[method]
    return dense.codec.decode(kernel(dense))
