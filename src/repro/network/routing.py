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

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Set, Tuple

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


def build_routing_tree(network: WRSN) -> RoutingTree:
    """Shortest-path tree from every sensor to the base station.

    The base station joins the data graph with edges to all sensors
    within the network's communication range of its position; Dijkstra
    from the base station then yields each sensor's parent. Unreachable
    sensors get a direct link to the base station.

    The search walks the cached data graph's adjacency plus the base
    station's neighbour list, without copying the graph. It is
    networkx's ``single_source_dijkstra``: a ``(distance, counter)``
    heap and a strict ``<`` relaxation, over the neighbour order a copy
    of the graph with the base station added would give (the data
    graph is built in that order; the base station's own edges, last
    in every list, never relax), so ties break as networkx breaks them.
    """
    adjacency: Dict[object, Dict] = dict(network.comm_graph().adjacency())
    bs_pos = network.base_station.position
    sensors = network.sensors()
    bs_edges: Dict[int, Dict[str, float]] = {}
    for sensor in sensors:
        dist = bs_pos.distance_to(sensor.position)
        if dist <= network.comm_range_m:
            bs_edges[sensor.id] = {"weight": dist}
    adjacency[BS_NODE] = bs_edges

    parent: Dict[int, object] = {}
    depth: Dict[object, int] = {BS_NODE: 0}
    settled: Set[object] = set()
    seen: Dict[object, float] = {BS_NODE: 0}
    counter = count()
    fringe: List[Tuple[float, int, object]] = [(0, next(counter), BS_NODE)]
    while fringe:
        d, _, v = heappop(fringe)
        if v in settled:
            continue
        settled.add(v)
        if v != BS_NODE:
            depth[v] = depth[parent[v]] + 1
        for u, data in adjacency[v].items():
            if u in settled:
                continue
            vu_dist = d + data["weight"]
            if u not in seen or vu_dist < seen[u]:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, next(counter), u))
                parent[u] = v

    next_hop: Dict[int, float] = {}
    for sensor in sensors:
        sid = sensor.id
        par = parent.get(sid)
        if par is None:
            # Disconnected from the sink: direct uplink fallback.
            parent[sid] = BS_NODE
            next_hop[sid] = bs_pos.distance_to(sensor.position)
            depth[sid] = 1
        elif par == BS_NODE:
            next_hop[sid] = bs_pos.distance_to(sensor.position)
        else:
            next_hop[sid] = sensor.position.distance_to(
                network.position_of(par)
            )
    return RoutingTree(
        parent={sensor.id: parent[sensor.id] for sensor in sensors},
        next_hop_distance_m=next_hop,
        depth={sensor.id: depth[sensor.id] for sensor in sensors},
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
