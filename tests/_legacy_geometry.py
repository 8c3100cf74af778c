"""Retired dense-broadcast neighbour queries, kept as test oracles.

``DiskIndex.within_bulk`` used to broadcast every block of centers
against every indexed point — O(centers × points) distance evaluations
— and ``build_charging_graph`` scanned those rows in Python for its
``u < v`` edges. Both now come from the KD-tree pair query
(:meth:`repro.geometry.disk_index.DiskIndex.pairs_within`). The
oracle's membership rule is the repo's one rule, ``math.hypot``: the
broadcast only shortlists, and ``math.hypot`` decides.
``tests/test_geometry_bulk_oracle.py`` pins the new path against the
loops below: identical rows in identical order, and an identical
``G_c`` edge list.

They exist *only* as references; production code must never import
this module.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, List, Mapping, Optional, Sequence

import networkx as nx
import numpy as np

from repro.geometry.disk_index import DiskIndex
from repro.geometry.point import Point, PointLike

#: Centers per broadcast block — bounds the (centers × points) distance
#: matrix to a few MB.
_BULK_CHUNK = 512

#: Relative shortlist margin of the broadcast. ``np.hypot`` and
#: ``math.hypot`` differ by at most an ulp (~2e-16 relative), so every
#: pair within ``r`` by ``math.hypot`` is within ``r·(1 + 1e-9)`` by
#: ``np.hypot``.
_SHORTLIST_REL = 1e-9


def legacy_within_bulk(
    index: DiskIndex, centers: Sequence[PointLike], radius_m: float
) -> List[List[Hashable]]:
    """The retired ``DiskIndex.within_bulk``: one dense broadcast per
    block of centers, each shortlisted pair decided by ``math.hypot``;
    rows in index insertion order."""
    if radius_m < 0:
        raise ValueError(f"radius must be non-negative, got {radius_m}")
    labels = list(index.labels())
    coords = np.asarray(
        [index.position(lab) for lab in labels], dtype=float
    ).reshape(-1, 2)
    centers_arr = np.asarray(
        [(float(c[0]), float(c[1])) for c in centers], dtype=float
    ).reshape(-1, 2)
    xy = coords.tolist()
    out: List[List[Hashable]] = []
    if len(labels) == 0:
        return [[] for _ in range(len(centers_arr))]
    for start in range(0, len(centers_arr), _BULK_CHUNK):
        block = centers_arr[start:start + _BULK_CHUNK]
        dists = np.hypot(
            block[:, 0, None] - coords[None, :, 0],
            block[:, 1, None] - coords[None, :, 1],
        )
        shortlist = dists <= radius_m * (1.0 + _SHORTLIST_REL)
        for (cx, cy), row in zip(block.tolist(), shortlist):
            out.append([
                labels[i]
                for i in np.nonzero(row)[0].tolist()
                if math.hypot(cx - xy[i][0], cy - xy[i][1])
                <= radius_m
            ])
    return out


def legacy_build_charging_graph(
    positions: Mapping[int, Point],
    radius_m: float,
    nodes: Optional[Iterable[int]] = None,
) -> nx.Graph:
    """The retired ``build_charging_graph``: broadcast rows, then a
    Python scan for the ``other > node`` edges."""
    if radius_m <= 0:
        raise ValueError(f"charging radius must be positive, got {radius_m}")
    node_list = sorted(positions) if nodes is None else sorted(nodes)
    graph = nx.Graph()
    for node in node_list:
        graph.add_node(node, pos=positions[node])
    index = DiskIndex({n: positions[n] for n in node_list})
    rows = legacy_within_bulk(
        index, [positions[n] for n in node_list], radius_m
    )
    for node, row in zip(node_list, rows):
        for other in row:
            if other > node:
                graph.add_edge(node, other)
    return graph
