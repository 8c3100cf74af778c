"""Retired networkx planning graphs, kept as test oracles.

``G_c``, ``H`` and both MIS strategies used to run on ``networkx.Graph``
objects; they now run on :class:`repro.graphs.adjacency.NeighborRows`.
The builders below are the networkx versions as they last stood: the
same pair queries, with edges inserted in ``(i, j)`` order, so every
adjacency list is ascending. The graph tests compare the row-backed
structures against them: same nodes, same ascending rows, same MIS.

They exist *only* as references; production code must never import
this module.
"""

from __future__ import annotations

import heapq
from typing import FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set

import networkx as nx
import numpy as np

from repro.geometry.disk_index import DiskIndex
from repro.geometry.point import Point
from repro.graphs.adjacency import NeighborRows


def nx_build_charging_graph(
    positions: Mapping[int, Point],
    radius_m: float,
    nodes: Optional[Iterable[int]] = None,
) -> nx.Graph:
    """The retired networkx ``build_charging_graph``."""
    if radius_m <= 0:
        raise ValueError(f"charging radius must be positive, got {radius_m}")
    node_list = sorted(positions) if nodes is None else sorted(set(nodes))
    graph = nx.Graph()
    for node in node_list:
        graph.add_node(node, pos=positions[node])
    index = DiskIndex({n: positions[n] for n in node_list})
    rows, cols = index.pairs_within(
        [positions[n] for n in node_list], radius_m
    )
    upper = rows < cols
    graph.add_edges_from(
        (node_list[i], node_list[j])
        for i, j in zip(rows[upper].tolist(), cols[upper].tolist())
    )
    return graph


def nx_build_auxiliary_graph(
    sojourn_candidates: Iterable[int],
    coverage: Mapping[int, FrozenSet[int]],
    positions: Mapping[int, Point],
    radius_m: float,
) -> nx.Graph:
    """The retired networkx ``build_auxiliary_graph``."""
    if radius_m <= 0:
        raise ValueError(f"charging radius must be positive, got {radius_m}")
    candidates = sorted(sojourn_candidates)
    graph = nx.Graph()
    graph.add_nodes_from(candidates)
    index = DiskIndex({c: positions[c] for c in candidates})
    rows, cols = index.pairs_within(
        [positions[c] for c in candidates], 2.0 * radius_m
    )
    for i, j in zip(rows.tolist(), cols.tolist()):
        cand, other = candidates[i], candidates[j]
        if other > cand and coverage[cand] & coverage[other]:
            graph.add_edge(cand, other)
    return graph


def nx_maximal_independent_set(
    graph: nx.Graph, strategy: str = "min_degree", seed: int = 0
) -> List[int]:
    """The retired greedy MIS on a networkx graph."""
    if strategy == "min_degree":
        return _nx_greedy_min_degree(graph)
    if strategy == "lexicographic":
        order = sorted(graph.nodes)
    else:
        rng = np.random.default_rng(seed)
        order = list(graph.nodes)
        rng.shuffle(order)
    chosen: List[int] = []
    blocked: Set[int] = set()
    for node in order:
        if node in blocked:
            continue
        chosen.append(node)
        blocked.add(node)
        blocked.update(graph.neighbors(node))
    return sorted(chosen)


def _nx_greedy_min_degree(graph: nx.Graph) -> List[int]:
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
        for gone in dropped:
            for nbr in graph.neighbors(gone):
                if nbr not in removed:
                    degree[nbr] -= 1
                    heapq.heappush(heap, (degree[nbr], nbr))
    return sorted(chosen)


def rows_from_edges(
    nodes: Iterable[int], edges: Iterable[Sequence[int]]
) -> NeighborRows:
    """A :class:`NeighborRows` over ``nodes`` with the given edges."""
    adjacency = {node: set() for node in nodes}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return NeighborRows(
        {node: tuple(sorted(nbrs)) for node, nbrs in adjacency.items()}
    )


def assert_same_rows(rows: NeighborRows, graph: nx.Graph) -> None:
    """Same nodes in the same order, and the same ascending rows."""
    assert rows.nodes == tuple(graph.nodes)
    for node in graph.nodes:
        expected = tuple(graph.adj[node])
        assert rows.neighbors(node) == expected
        assert expected == tuple(sorted(expected))
    assert rows.number_of_nodes() == graph.number_of_nodes()
    assert rows.number_of_edges() == graph.number_of_edges()
