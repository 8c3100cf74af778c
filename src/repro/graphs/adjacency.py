"""Immutable undirected graphs as sorted neighbour rows.

``G_c`` and ``H`` are built once per planning context and then only
read (neighbours and degrees, by the MIS and the extension step), so
they are the ascending node tuple plus, per node, the ascending tuple
of its neighbours.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np


class NeighborRows:
    """An undirected graph as one ascending neighbour tuple per node.

    Args:
        rows: node -> ascending tuple of its neighbours; every
            neighbour must itself be a key, and the relation symmetric.
    """

    __slots__ = ("nodes", "_rows")

    def __init__(self, rows: Mapping[int, Tuple[int, ...]]):
        self.nodes: Tuple[int, ...] = tuple(sorted(rows))
        self._rows: Dict[int, Tuple[int, ...]] = dict(rows)

    @classmethod
    def from_pairs(
        cls, nodes: Sequence[int], rows: np.ndarray, cols: np.ndarray
    ) -> "NeighborRows":
        """Build from symmetric index pairs sorted by ``(row, col)``.

        ``nodes`` maps an index to its node and must be ascending;
        self pairs (``row == col``) are dropped.
        """
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
        hits = [nodes[j] for j in cols.tolist()]
        bounds = np.searchsorted(rows, np.arange(len(nodes) + 1)).tolist()
        return cls({
            node: tuple(hits[lo:hi])
            for node, lo, hi in zip(nodes, bounds, bounds[1:])
        })

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """The neighbours of ``node``, ascending."""
        return self._rows[node]

    def degree(self, node: int) -> int:
        """Number of neighbours of ``node``."""
        return len(self._rows[node])

    def number_of_nodes(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    def number_of_edges(self) -> int:
        """Number of undirected edges."""
        return sum(map(len, self._rows.values())) // 2

    def __contains__(self, node: object) -> bool:
        return node in self._rows
