"""Shortest-path-tree routing to the base station and relay loads.

Sensors forward their data to the base station hop by hop over the
data graph. We route along the shortest (distance-weighted) path tree,
the standard model behind the Li–Mohapatra energy-hole analysis the
paper's evaluation adopts: sensors near the sink carry the traffic of
whole subtrees and therefore deplete much faster, which is what makes
their charging requests frequent and the scheduling problem pressing.

Sensors with no multi-hop path to the base station (isolated components
of a sparse deployment) fall back to a direct long link to the base
station, so every sensor always has a defined load and power draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.geometry.disk_index import DiskIndex
from repro.geometry.point import PointLike
from repro.network.topology import WRSN

#: Virtual graph node representing the base station.
BS_NODE = "BS"


@dataclass(frozen=True)
class RoutingTree:
    """Result of routing every sensor to the base station.

    Attributes:
        parent: next hop of each sensor — another sensor id, or
            :data:`BS_NODE` when the sensor uplinks directly.
        next_hop_distance_m: distance to that next hop.
        depth: hop count to the base station.
    """

    parent: Dict[int, object]
    next_hop_distance_m: Dict[int, float]
    depth: Dict[int, int]

    def children_of(self) -> Dict[object, List[int]]:
        """Invert the parent map: node -> list of child sensor ids."""
        children: Dict[object, List[int]] = {}
        for node, par in self.parent.items():
            children.setdefault(par, []).append(node)
        return children


def _data_graph_rows(
    positions: Mapping[int, PointLike], comm_range_m: float
) -> Tuple[List[int], List[int], List[float]]:
    """The data graph as neighbour rows over node-order indices: row
    ``i`` is ``cols[starts[i]:starts[i + 1]]``, ascending, with the
    matching ``weights``, each the ``distance_to`` from the edge's
    earlier endpoint, as ``WRSN.comm_graph`` stores it."""
    index = DiskIndex(positions)
    rows, cols = index.self_pairs_within(comm_range_m)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    weights = index.pair_distances(
        np.minimum(rows, cols), np.maximum(rows, cols)
    )
    starts = np.searchsorted(rows, np.arange(len(positions) + 1))
    return starts.tolist(), cols.tolist(), weights


def build_routing_tree(network: WRSN) -> RoutingTree:
    """Shortest-path tree from every sensor to the base station.

    The base station joins the data graph with edges to all sensors
    within the network's communication range of its position; Dijkstra
    from the base station then yields each sensor's parent. Unreachable
    sensors get a direct link to the base station.

    The data graph's neighbour rows come straight from
    :meth:`~repro.geometry.disk_index.DiskIndex.self_pairs_within`, in
    the order :meth:`~repro.network.topology.WRSN.comm_graph` lists
    them (each sensor's neighbours in node order), each edge weighted
    by ``distance_to`` from its endpoint earlier in node order, as the
    graph stores it; no graph is built. The search is networkx's
    ``single_source_dijkstra`` over a copy of that graph with the base
    station added: a ``(distance, counter)`` heap and a strict ``<``
    relaxation. The base station's edges come last in every sensor's
    list there and never relax (it is settled first), so the rows leave
    them out, and ties break as networkx breaks them.
    """
    positions = network.positions()
    labels = list(positions)
    bs_pos = network.base_station.position
    sensors = network.sensors()
    size = len(labels)
    starts, cols, weights = _data_graph_rows(positions, network.comm_range_m)
    index_of = {sid: i for i, sid in enumerate(labels)}
    bs_row: List[Tuple[int, float]] = []
    for sensor in sensors:
        dist = bs_pos.distance_to(sensor.position)
        if dist <= network.comm_range_m:
            bs_row.append((index_of[sensor.id], dist))

    # Sensors are indices in node order; index ``size`` is the base
    # station, and -1 "no parent yet".
    bs = size
    parent = [-1] * size
    depth = [0] * (size + 1)
    settled = [False] * (size + 1)
    seen = [math.inf] * (size + 1)
    seen[bs] = 0
    counter = count()
    fringe: List[Tuple[float, int, int]] = [(0, next(counter), bs)]
    while fringe:
        d, _, v = heappop(fringe)
        if settled[v]:
            continue
        settled[v] = True
        if v == bs:
            neighbours = bs_row
        else:
            depth[v] = depth[parent[v]] + 1
            span = slice(starts[v], starts[v + 1])
            neighbours = zip(cols[span], weights[span])
        for u, weight in neighbours:
            if settled[u]:
                continue
            vu_dist = d + weight
            if vu_dist < seen[u]:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, next(counter), u))
                parent[u] = v

    tree_parent: Dict[int, object] = {}
    next_hop: Dict[int, float] = {}
    hops: Dict[int, int] = {}
    for sensor in sensors:
        sid = sensor.id
        par = parent[index_of[sid]]
        if par < 0:
            # Disconnected from the sink: direct uplink fallback.
            tree_parent[sid] = BS_NODE
            next_hop[sid] = bs_pos.distance_to(sensor.position)
            hops[sid] = 1
            continue
        if par == bs:
            tree_parent[sid] = BS_NODE
            next_hop[sid] = bs_pos.distance_to(sensor.position)
        else:
            tree_parent[sid] = labels[par]
            next_hop[sid] = sensor.position.distance_to(
                network.position_of(labels[par])
            )
        hops[sid] = depth[index_of[sid]]
    return RoutingTree(
        parent=tree_parent, next_hop_distance_m=next_hop, depth=hops
    )


def relay_loads_bps(network: WRSN, tree: Optional[RoutingTree] = None) -> Dict[int, float]:
    """Traffic each sensor relays for its routing-tree descendants.

    Returns bits per second of *relayed* (not own) traffic per sensor:
    the sum of the sensing rates of every sensor whose path to the base
    station passes through it.
    """
    if tree is None:
        tree = build_routing_tree(network)
    children = tree.children_of()
    rates = {s.id: s.data_rate_bps for s in network.sensors()}

    # Accumulate subtree rates bottom-up with an explicit stack
    # (post-order), avoiding recursion limits on deep chains.
    subtree: Dict[int, float] = {}

    def subtree_rate(root: int) -> float:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in subtree:
                continue
            kids = children.get(node, [])
            if expanded or not kids:
                subtree[node] = rates[node] + sum(subtree[k] for k in kids)
            else:
                stack.append((node, True))
                for kid in kids:
                    stack.append((kid, False))
        return subtree[root]

    for sid in rates:
        subtree_rate(sid)
    return {sid: subtree[sid] - rates[sid] for sid in rates}
