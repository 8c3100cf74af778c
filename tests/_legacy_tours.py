"""Retired scalar tour loops, kept as test oracles.

These are the label-space loops that ``repro.tours.{tsp,improve,
splitting,energy_budget}`` ran before the array kernels of
:mod:`repro.tours.arrays` and :mod:`repro.tours.christofides` became
the only implementation: nearest-neighbour, greedy-edge, double-MST
and Christofides construction (the last two through networkx, in a
:data:`DEPOT`-sentinel label space), first-improvement 2-opt, Or-opt,
the greedy split, the binary-searched min-max split and the
energy-constrained dual split. The loop bodies are verbatim; only
the kernel fast paths that used to precede them are gone, and functions
whose production name survives carry a ``legacy_`` prefix.
``tests/test_tours_arrays.py`` pins every kernel against them, byte for
byte, over a 100-seed corpus.

They exist *only* as references; production code must never import
this module.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.geometry.distcache import DistanceCache
from repro.geometry.point import PointLike
from repro.tours.energy_budget import MCVEnergyModel
from repro.tours.splitting import segment_cost

#: Sentinel id for the depot inside the label-space constructions.
#: Sensor ids are non-negative integers, so it can never collide.
DEPOT: Hashable = "DEPOT"

#: Pairwise distance lookup over node labels.
DistanceFn = Callable[[Hashable, Hashable], float]

_BINARY_SEARCH_REL_TOL = 1e-9
_BINARY_SEARCH_MAX_ITER = 100

#: Mirrors ``repro.tours.kminmax``'s backbone policy.
_CHRISTOFIDES_MAX_NODES = 250
_IMPROVE_MAX_NODES = 600


# ---------------------------------------------------------------------------
# TSP constructions (formerly repro.tours.tsp)
# ---------------------------------------------------------------------------


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
    """The MST-doubling 2-approximation: networkx's preorder walk of
    scipy's minimum spanning tree rooted at ``start``."""
    all_nodes = list(dict.fromkeys(list(nodes) + [start]))
    if len(all_nodes) <= 2:
        return all_nodes if all_nodes[0] == start else all_nodes[::-1]
    dist = _distance_lookup(positions, dist)
    matrix = np.zeros((len(all_nodes), len(all_nodes)))
    for i, a in enumerate(all_nodes):
        matrix[i, i + 1:] = [dist(a, b) for b in all_nodes[i + 1:]]
    matrix += matrix.T
    order_idx = nx_mst_preorder(matrix, all_nodes.index(start))
    return [all_nodes[i] for i in order_idx]


def nx_mst_preorder(matrix: np.ndarray, root: int) -> List[int]:
    """``nx.dfs_preorder_nodes`` over scipy's minimum spanning tree of
    a dense symmetric distance matrix (zero entries are no edge)."""
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
    """Christofides' 1.5-approximation (``nx.approximation.christofides``
    on the complete graph), rotated to begin with ``start``.

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


def nearest_neighbor_tour(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    start: Hashable,
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """Nearest-neighbour construction starting from ``start``.

    Returns the full cycle order beginning with ``start``.
    """
    dist = _distance_lookup(positions, dist)
    remaining = set(nodes)
    remaining.discard(start)
    order = [start]
    current = start
    while remaining:
        nxt = min(remaining, key=lambda n: (dist(current, n), str(n)))
        order.append(nxt)
        remaining.remove(nxt)
        current = nxt
    return order


def greedy_edge_tour(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    start: Hashable,
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """Greedy-edge construction: repeatedly add the globally shortest
    edge that keeps degrees ≤ 2 and forms no premature subcycle.

    Returns the cycle order rotated to begin with ``start``.
    """
    all_nodes = list(dict.fromkeys(list(nodes) + [start]))
    if len(all_nodes) == 1:
        return [start]
    if len(all_nodes) == 2:
        return [start, next(n for n in all_nodes if n != start)]
    dist = _distance_lookup(positions, dist)
    edges = sorted(
        (
            (dist(a, b), i, j)
            for i, a in enumerate(all_nodes)
            for j, b in enumerate(all_nodes)
            if i < j
        ),
    )
    degree = [0] * len(all_nodes)
    # Union-find over node indices to reject premature cycles.
    parent = list(range(len(all_nodes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: Dict[int, List[int]] = {i: [] for i in range(len(all_nodes))}
    added = 0
    for _, i, j in edges:
        if added == len(all_nodes) - 1:
            break
        if degree[i] >= 2 or degree[j] >= 2:
            continue
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        degree[i] += 1
        degree[j] += 1
        adj[i].append(j)
        adj[j].append(i)
        added += 1
    # Close the Hamiltonian path: exactly two endpoints have degree 1.
    endpoints = [i for i in range(len(all_nodes)) if degree[i] == 1]
    assert len(endpoints) == 2, "greedy edge construction left a broken path"
    adj[endpoints[0]].append(endpoints[1])
    adj[endpoints[1]].append(endpoints[0])
    # Walk the cycle.
    start_idx = all_nodes.index(start)
    order_idx = [start_idx]
    prev = None
    current = start_idx
    while True:
        nxt = next(n for n in adj[current] if n != prev)
        if nxt == start_idx:
            break
        order_idx.append(nxt)
        prev, current = current, nxt
    return [all_nodes[i] for i in order_idx]


def legacy_build_tsp_order(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    method: str = "christofides",
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """The retired ``build_tsp_order``: every construction in the
    :data:`DEPOT`-sentinel label space."""
    node_list = list(nodes)
    if not node_list:
        return []
    if len(node_list) == 1:
        return node_list
    pos: Dict[Hashable, PointLike] = {n: positions[n] for n in node_list}
    pos[DEPOT] = depot
    inner = None if dist is None else _translate_depot(dist)
    builder = {
        "nearest_neighbor": nearest_neighbor_tour,
        "greedy_edge": greedy_edge_tour,
        "double_mst": double_mst_tour,
        "christofides": christofides_tour,
    }[method]
    cycle = builder(node_list + [DEPOT], pos, DEPOT, inner)
    assert cycle[0] == DEPOT
    return cycle[1:]


# ---------------------------------------------------------------------------
# Local search (formerly repro.tours.improve)
# ---------------------------------------------------------------------------


def _dist_fn(
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    dist: Optional[DistanceFn] = None,
) -> DistanceFn:
    return dist if dist is not None else DistanceCache(positions, depot)


def legacy_two_opt(
    order: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    max_rounds: int = 30,
    min_gain: float = 1e-9,
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """First-improvement 2-opt on a depot-rooted cycle."""
    current = list(order)
    n = len(current)
    if n < 3:
        return current
    dist = _dist_fn(positions, depot, dist)
    # Treat the cycle as depot(None), v0, ..., v_{n-1}, depot(None).
    for _ in range(max_rounds):
        improved = False
        for i in range(n - 1):
            before_i = current[i - 1] if i > 0 else None
            for j in range(i + 1, n):
                after_j = current[j + 1] if j + 1 < n else None
                removed = dist(before_i, current[i]) + dist(current[j], after_j)
                added = dist(before_i, current[j]) + dist(current[i], after_j)
                if removed - added > min_gain:
                    current[i : j + 1] = reversed(current[i : j + 1])
                    improved = True
        if not improved:
            break
    return current


def legacy_or_opt(
    order: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    segment_lengths: Sequence[int] = (1, 2, 3),
    max_rounds: int = 10,
    min_gain: float = 1e-9,
    dist: Optional[DistanceFn] = None,
) -> List[Hashable]:
    """Or-opt: relocate short segments to better positions in the cycle."""
    current = list(order)
    dist = _dist_fn(positions, depot, dist)
    for _ in range(max_rounds):
        improved = False
        for seg_len in segment_lengths:
            n = len(current)
            if n <= seg_len:
                continue
            i = 0
            while i + seg_len <= len(current):
                segment = current[i : i + seg_len]
                rest = current[:i] + current[i + seg_len :]
                before = current[i - 1] if i > 0 else None
                after = current[i + seg_len] if i + seg_len < len(current) else None
                removal_gain = (
                    dist(before, segment[0])
                    + dist(segment[-1], after)
                    - dist(before, after)
                )
                # Try reinsertion between every pair in the remainder.
                best_delta = -min_gain
                best_pos = None
                for pos in range(len(rest) + 1):
                    pb = rest[pos - 1] if pos > 0 else None
                    pa = rest[pos] if pos < len(rest) else None
                    insertion_cost = (
                        dist(pb, segment[0])
                        + dist(segment[-1], pa)
                        - dist(pb, pa)
                    )
                    delta = insertion_cost - removal_gain
                    if delta < best_delta:
                        best_delta = delta
                        best_pos = pos
                if best_pos is not None:
                    current = rest[:best_pos] + segment + rest[best_pos:]
                    improved = True
                else:
                    i += 1
        if not improved:
            break
    return current


# ---------------------------------------------------------------------------
# Splitting (formerly repro.tours.splitting)
# ---------------------------------------------------------------------------


def legacy_greedy_split_with_bound(
    order: Sequence[Hashable],
    bound: float,
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    speed_mps: float,
    service: Callable[[Hashable], float],
    dist: Optional[DistanceFn] = None,
) -> Optional[List[List[Hashable]]]:
    """Greedily cut ``order`` into segments of cost ≤ ``bound``."""
    if dist is None:
        dist = DistanceCache(positions, depot)
    segments: List[List[Hashable]] = []
    current: List[Hashable] = []
    # Cost of the current segment *without* the return-to-depot leg.
    open_cost = 0.0
    last: Optional[Hashable] = None

    for node in order:
        step = dist(last, node) / speed_mps + service(node)
        closing = dist(node, None) / speed_mps
        if current and open_cost + step + closing > bound:
            # Close the current segment before this node.
            segments.append(current)
            current = []
            last = None
            open_cost = 0.0
            step = dist(None, node) / speed_mps + service(node)
        if not current and step + closing > bound:
            return None  # single node infeasible under this bound
        current.append(node)
        open_cost += step
        last = node
    if current:
        segments.append(current)
    return segments


def legacy_split_tour_min_max(
    order: Sequence[Hashable],
    num_tours: int,
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    speed_mps: float,
    service: Callable[[Hashable], float],
    dist: Optional[DistanceFn] = None,
) -> Tuple[List[List[Hashable]], float]:
    """Best consecutive split of ``order`` into ≤ ``num_tours`` segments."""
    if num_tours <= 0:
        raise ValueError(f"num_tours must be positive, got {num_tours}")
    order = list(order)
    if not order:
        return [[] for _ in range(num_tours)], 0.0
    if dist is None:
        dist = DistanceCache(positions, depot)

    def max_cost(segments: Sequence[Sequence[Hashable]]) -> float:
        return max(
            segment_cost(seg, positions, depot, speed_mps, service, dist)
            for seg in segments
            if seg
        )

    # Lower bound: the costliest single-node round trip. Upper bound:
    # the whole order as one segment.
    low = max(
        segment_cost([node], positions, depot, speed_mps, service, dist)
        for node in order
    )
    high = segment_cost(order, positions, depot, speed_mps, service, dist)

    def feasible(bound: float) -> Optional[List[List[Hashable]]]:
        # Inflate the bound by a hair: the packer accumulates travel
        # legs in a different order than segment_cost, so exact
        # equality is not float-safe.
        slack = bound * (1.0 + 1e-12) + 1e-9
        segs = legacy_greedy_split_with_bound(
            order, slack, positions, depot, speed_mps, service, dist
        )
        if segs is None or len(segs) > num_tours:
            return None
        return segs

    best = feasible(high)
    assert best is not None, "the full tour must fit in one segment"
    low_split = feasible(low)
    if low_split is not None:
        best = low_split
    else:
        for _ in range(_BINARY_SEARCH_MAX_ITER):
            if high - low <= _BINARY_SEARCH_REL_TOL * max(high, 1.0):
                break
            mid = (low + high) / 2.0
            segs = feasible(mid)
            if segs is None:
                low = mid
            else:
                high = mid
                best = segs
    padded = [list(seg) for seg in best]
    padded.extend([] for _ in range(num_tours - len(padded)))
    return padded, max_cost(best)


# ---------------------------------------------------------------------------
# Energy-constrained splitting (formerly repro.tours.energy_budget)
# ---------------------------------------------------------------------------


def greedy_split_dual(
    order: Sequence[Hashable],
    delay_bound_s: float,
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    speed_mps: float,
    service: Callable[[Hashable], float],
    model: MCVEnergyModel,
    dist: Optional[DistanceFn] = None,
) -> Optional[List[List[Hashable]]]:
    """Greedy packing under both the delay bound and the battery.

    Returns ``None`` when some single node violates either constraint
    on its own.
    """
    if dist is None:
        dist = DistanceCache(positions, depot)
    segments: List[List[Hashable]] = []
    current: List[Hashable] = []
    open_cost = 0.0       # delay without the return leg
    open_travel = 0.0     # metres without the return leg
    open_charge = 0.0     # charging seconds
    last: Optional[Hashable] = None

    def fits(cost, travel_m, charge_s) -> bool:
        energy = model.travel_energy(travel_m) + model.charging_energy(
            charge_s
        )
        return cost <= delay_bound_s and energy <= model.battery_j

    for node in order:
        leg = dist(last, node)
        svc = service(node)
        closing = dist(node, None)
        candidate_cost = open_cost + leg / speed_mps + svc + closing / speed_mps
        candidate_travel = open_travel + leg + closing
        candidate_charge = open_charge + svc
        if current and not fits(
            candidate_cost, candidate_travel, candidate_charge
        ):
            segments.append(current)
            current = []
            open_cost = open_travel = open_charge = 0.0
            last = None
            leg = dist(None, node)
            candidate_cost = leg / speed_mps + svc + closing / speed_mps
            candidate_travel = leg + closing
            candidate_charge = svc
        if not current and not fits(
            candidate_cost, candidate_travel, candidate_charge
        ):
            return None
        current.append(node)
        open_cost += leg / speed_mps + svc
        open_travel += leg
        open_charge += svc
        last = node
    if current:
        segments.append(current)
    return segments


def legacy_split_tour_energy_constrained(
    order: Sequence[Hashable],
    num_tours: int,
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    speed_mps: float,
    service: Callable[[Hashable], float],
    model: MCVEnergyModel,
    dist: Optional[DistanceFn] = None,
) -> Tuple[Optional[List[List[Hashable]]], float]:
    """Best energy-feasible consecutive split into ≤ ``num_tours``."""
    if num_tours <= 0:
        raise ValueError(f"num_tours must be positive, got {num_tours}")
    order = list(order)
    if not order:
        return [[] for _ in range(num_tours)], 0.0
    if dist is None:
        dist = DistanceCache(positions, depot)

    low = max(
        segment_cost([node], positions, depot, speed_mps, service, dist)
        for node in order
    )
    high = segment_cost(order, positions, depot, speed_mps, service, dist)

    def feasible(bound: float) -> Optional[List[List[Hashable]]]:
        slack = bound * (1.0 + 1e-12) + 1e-9
        segs = greedy_split_dual(
            order, slack, positions, depot, speed_mps, service, model, dist
        )
        if segs is None or len(segs) > num_tours:
            return None
        return segs

    best = feasible(high)
    if best is None:
        return None, math.inf
    low_split = feasible(low)
    if low_split is not None:
        best = low_split
    else:
        for _ in range(100):
            if high - low <= 1e-9 * max(high, 1.0):
                break
            mid = (low + high) / 2.0
            segs = feasible(mid)
            if segs is None:
                low = mid
            else:
                high = mid
                best = segs
    achieved = max(
        segment_cost(seg, positions, depot, speed_mps, service, dist)
        for seg in best
        if seg
    )
    padded = [list(seg) for seg in best]
    padded.extend([] for _ in range(num_tours - len(padded)))
    return padded, achieved


# ---------------------------------------------------------------------------
# The composed solver (formerly repro.tours.kminmax)
# ---------------------------------------------------------------------------


def legacy_solve_k_minmax_tours(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    num_tours: int,
    speed_mps: float,
    service: Callable[[Hashable], float],
    tsp_method: str = "christofides",
    improve: bool = True,
    dist: Optional[DistanceFn] = None,
) -> Tuple[List[List[Hashable]], float]:
    """``solve_k_minmax_tours`` composed from the scalar steps above."""
    if num_tours <= 0:
        raise ValueError(f"num_tours must be positive, got {num_tours}")
    node_list = list(nodes)
    if not node_list:
        return [[] for _ in range(num_tours)], 0.0
    if dist is None:
        dist = DistanceCache(positions, depot)
    method = tsp_method
    if method == "christofides" and len(node_list) > _CHRISTOFIDES_MAX_NODES:
        method = "greedy_edge"
    order = legacy_build_tsp_order(
        node_list, positions, depot, method=method, dist=dist
    )
    if improve and 3 <= len(order) <= _IMPROVE_MAX_NODES:
        order = legacy_two_opt(order, positions, depot, dist=dist)
        order = legacy_or_opt(order, positions, depot, dist=dist)
    return legacy_split_tour_min_max(
        order, num_tours, positions, depot, speed_mps, service, dist
    )
