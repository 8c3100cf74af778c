"""Greedy maximal independent sets with pluggable selection order.

Algorithm 1 computes two maximal independent sets: ``S_I`` on the
charging graph ``G_c`` (candidate sojourn locations — by maximality
their disks cover all of ``V_s``) and ``V'_H`` on the auxiliary graph
``H`` (a conflict-free core). The paper does not prescribe a particular
MIS; any maximal independent set satisfies the analysis. We implement
the classic sequential greedy with three selection strategies so their
effect can be measured (see ``benchmarks/test_ablation_mis.py``):

* ``"min_degree"`` — pick the lowest-degree remaining node; tends to
  produce large independent sets (good coverage granularity).
* ``"lexicographic"`` — ascending node id; deterministic and fast.
* ``"random"`` — uniformly random permutation (seeded).
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Set

import numpy as np

from repro.graphs.adjacency import NeighborRows

_STRATEGIES = ("min_degree", "lexicographic", "random")


def maximal_independent_set(
    graph: NeighborRows,
    strategy: str = "min_degree",
    seed: int = 0,
) -> List[int]:
    """Compute a maximal independent set of ``graph``.

    Args:
        graph: any undirected graph; isolated nodes are always chosen.
        strategy: one of ``"min_degree"``, ``"lexicographic"``,
            ``"random"``.
        seed: RNG seed for the ``"random"`` strategy.

    Returns:
        The chosen nodes, sorted ascending.

    Raises:
        ValueError: on an unknown strategy.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(
            f"unknown MIS strategy {strategy!r}; expected one of {_STRATEGIES}"
        )
    if strategy == "min_degree":
        return _greedy_min_degree(graph)
    if strategy == "lexicographic":
        order = sorted(graph.nodes)
    else:
        rng = np.random.default_rng(seed)
        order = list(graph.nodes)
        rng.shuffle(order)
    return _greedy_in_order(graph, order)


def _greedy_in_order(graph: NeighborRows, order: Iterable[int]) -> List[int]:
    chosen: List[int] = []
    blocked: Set[int] = set()
    for node in order:
        if node in blocked:
            continue
        chosen.append(node)
        blocked.add(node)
        blocked.update(graph.neighbors(node))
    return sorted(chosen)


def _greedy_min_degree(graph: NeighborRows) -> List[int]:
    """Greedy MIS selecting the minimum-residual-degree node each step.

    Implemented with a lazy heap: entries are re-pushed when their
    degree snapshot is stale, giving O(m log n) overall.
    """
    degree = {node: graph.degree(node) for node in graph.nodes}
    heap = [(deg, node) for node, deg in degree.items()]
    heapq.heapify(heap)
    removed: Set[int] = set()
    chosen: List[int] = []
    while heap:
        deg, node = heapq.heappop(heap)
        if node in removed:
            continue
        if deg != degree[node]:
            heapq.heappush(heap, (degree[node], node))
            continue
        chosen.append(node)
        removed.add(node)
        dropped = [nbr for nbr in graph.neighbors(node) if nbr not in removed]
        removed.update(dropped)
        # Shrink the residual degrees of second-hop neighbours.
        for gone in dropped:
            for nbr in graph.neighbors(gone):
                if nbr not in removed:
                    degree[nbr] -= 1
                    heapq.heappush(heap, (degree[nbr], nbr))
    return sorted(chosen)


def is_independent_set(graph: NeighborRows, nodes: Iterable[int]) -> bool:
    """Whether ``nodes`` is an independent set of ``graph``."""
    node_set = set(nodes)
    if not all(node in graph for node in node_set):
        return False
    return not any(
        v in node_set for u in node_set for v in graph.neighbors(u)
    )


def is_maximal_independent_set(graph: NeighborRows, nodes: Iterable[int]) -> bool:
    """Whether ``nodes`` is independent *and* maximal (no node outside
    the set could be added without breaking independence)."""
    node_set = set(nodes)
    if not is_independent_set(graph, node_set):
        return False
    for node in graph.nodes:
        if node in node_set:
            continue
        if not any(nbr in node_set for nbr in graph.neighbors(node)):
            return False
    return True
