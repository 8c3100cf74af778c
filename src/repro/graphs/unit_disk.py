"""The charging graph ``G_c``.

Section IV constructs ``G_c = (V_s, E)`` over the to-be-charged sensors
with an edge wherever two sensors are within the charging radius ``γ``
of each other — a unit-disk graph.

Construction takes its edges from one KD-tree pair query
(:meth:`repro.geometry.disk_index.DiskIndex.self_pairs_within`), so it is
O(n log n + |E|) instead of O(n²). Membership is
``u.distance_to(v) <= γ`` exactly, the rule of every other "within γ"
in the repo. Edges carry no weight: nothing downstream reads one.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.geometry.disk_index import DiskIndex
from repro.geometry.point import Point
from repro.graphs.adjacency import NeighborRows


def build_charging_graph(
    positions: Mapping[int, Point],
    radius_m: float,
    nodes: Optional[Iterable[int]] = None,
) -> NeighborRows:
    """Build the unit-disk charging graph.

    Args:
        positions: sensor id -> position for at least every node in
            ``nodes``.
        radius_m: the charging radius ``γ``; the edge rule is
            ``d(u, v) <= γ`` (boundary inclusive, matching ``N_c``).
        nodes: the to-be-charged subset ``V_s``; defaults to every key
            of ``positions``.

    Returns:
        :class:`~repro.graphs.adjacency.NeighborRows` over the sorted
        nodes, each row ascending.
    """
    if radius_m <= 0:
        raise ValueError(f"charging radius must be positive, got {radius_m}")
    node_list = sorted(positions) if nodes is None else sorted(set(nodes))
    index = DiskIndex({n: positions[n] for n in node_list})
    # One pair query over all nodes. Labels were inserted in node_list
    # order, so label index == node_list index, and the pairs come
    # sorted by (i, j): each row is ascending.
    rows, cols = index.self_pairs_within(radius_m)
    return NeighborRows.from_pairs(node_list, rows, cols)
