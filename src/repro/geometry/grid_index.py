"""Uniform grid spatial index for fixed-radius neighbour queries.

Building the charging graph ``G_c`` requires, for each of up to
several thousand sensors, all other sensors within the charging radius
``γ``. A naive all-pairs scan is O(n²); the :class:`GridIndex` buckets
points into square cells of side ``cell_size`` so a radius-``r`` query
only visits the O((r / cell_size + 1)²) cells around the query point,
and answers many queries at once from a KD-tree over the same points
(:meth:`GridIndex.pairs_within`).

The index is immutable after construction, matching its use: WRSN
deployments are static for the lifetime of a scheduling instance.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.distance import euclidean
from repro.geometry.point import PointLike

_Cell = Tuple[int, int]

#: Relative and absolute slack on the KD-tree query radius in
#: :meth:`GridIndex.pairs_within`. The tree measures distance with its
#: own arithmetic, which may round a boundary pair a few ulps above
#: ``np.hypot``; the slack makes its hits a strict superset, and the
#: exact ``np.hypot`` filter then decides membership.
_TREE_REL_SLACK = 1e-9
_TREE_ABS_SLACK = 1e-12


class GridIndex:
    """Bucket-grid over labelled planar points.

    Args:
        points: mapping from an arbitrary hashable label (typically a
            sensor id) to its ``(x, y)`` position.
        cell_size: side length of a grid cell in metres. A good choice
            is the most common query radius; queries with other radii
            remain correct, only the constant factor changes.
    """

    def __init__(self, points: Mapping[Hashable, PointLike], cell_size: float):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = float(cell_size)
        self._positions: Dict[Hashable, Tuple[float, float]] = {}
        self._cells: Dict[_Cell, List[Hashable]] = {}
        for label, pos in points.items():
            x, y = pos
            self._positions[label] = (float(x), float(y))
            self._cells.setdefault(self._cell_of(x, y), []).append(label)
        # Label list, coordinate array and KD-tree for pairs_within,
        # built on first use.
        self._bulk: Optional[Tuple[List[Hashable], np.ndarray, cKDTree]] = None

    def _cell_of(self, x: float, y: float) -> _Cell:
        return (math.floor(x / self._cell_size), math.floor(y / self._cell_size))

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._positions

    @property
    def cell_size(self) -> float:
        return self._cell_size

    def position(self, label: Hashable) -> Tuple[float, float]:
        """Stored position of ``label``."""
        return self._positions[label]

    def labels(self) -> Iterable[Hashable]:
        """All labels in the index."""
        return self._positions.keys()

    def within(self, center: PointLike, radius_m: float) -> List[Hashable]:
        """All labels whose point lies within ``radius_m`` of ``center``.

        The boundary is inclusive (``d <= radius_m``), matching the
        paper's coverage definition ``d(u, v) <= γ``, with ``d`` from
        ``math.hypot`` — which can round an ulp away from the
        ``np.hypot`` of :meth:`pairs_within`.
        """
        if radius_m < 0:
            raise ValueError(f"radius must be non-negative, got {radius_m}")
        cx, cy = center
        # Minimal ring count: any point within r of the centre has each
        # coordinate within r, and |floor((c ± r)/cell) - floor(c/cell)|
        # <= ceil(r/cell) — the extra ring the old "+ 1" scanned could
        # never contain a hit, even for d == radius on a cell edge.
        span = int(math.ceil(radius_m / self._cell_size))
        base = self._cell_of(cx, cy)
        found: List[Hashable] = []
        for dx in range(-span, span + 1):
            for dy in range(-span, span + 1):
                cell = (base[0] + dx, base[1] + dy)
                for label in self._cells.get(cell, ()):
                    if euclidean(self._positions[label], (cx, cy)) <= radius_m:
                        found.append(label)
        return found

    def _bulk_view(self) -> Tuple[List[Hashable], np.ndarray, cKDTree]:
        """Label list, coordinate array and KD-tree, built on first use."""
        if self._bulk is None:
            labels = list(self._positions)
            coords = np.asarray(
                [self._positions[lab] for lab in labels], dtype=float
            ).reshape(-1, 2)
            self._bulk = (labels, coords, cKDTree(coords))
        return self._bulk

    def pairs_within(
        self, centers: Sequence[PointLike], radius_m: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every ``(center, point)`` pair within ``radius_m``, as arrays.

        A KD-tree query at a slightly inflated radius yields a superset
        of the hits; each candidate pair is then kept iff
        ``np.hypot(cx - px, cy - py) <= radius_m`` — the rule that
        defines membership, so the slack never adds a pair. This is
        *not* always :meth:`within`'s rule: ``math.hypot`` and
        ``np.hypot`` can differ by an ulp, so a pair at distance
        ``≈ radius_m`` may be a hit here and a miss there
        (``tests/test_geometry_boundary.py`` pins one such pair).

        Returns:
            ``(center_index, label_index)`` integer arrays of equal
            length, sorted by center index and, within a center, by
            label index (the index's insertion order).
        """
        if radius_m < 0:
            raise ValueError(f"radius must be non-negative, got {radius_m}")
        _, coords, tree = self._bulk_view()
        centers_arr = np.asarray(
            [(float(c[0]), float(c[1])) for c in centers], dtype=float
        ).reshape(-1, 2)
        hits = cKDTree(centers_arr).sparse_distance_matrix(
            tree,
            radius_m * (1.0 + _TREE_REL_SLACK) + _TREE_ABS_SLACK,
            output_type="ndarray",
        )
        center_idx = hits["i"].astype(np.intp)
        label_idx = hits["j"].astype(np.intp)
        keep = np.hypot(
            centers_arr[center_idx, 0] - coords[label_idx, 0],
            centers_arr[center_idx, 1] - coords[label_idx, 1],
        ) <= radius_m
        center_idx, label_idx = center_idx[keep], label_idx[keep]
        order = np.lexsort((label_idx, center_idx))
        return center_idx[order], label_idx[order]

    def within_bulk(
        self, centers: Sequence[PointLike], radius_m: float
    ) -> List[List[Hashable]]:
        """One label list per center, from :meth:`pairs_within`.

        Each list holds the labels in index insertion order; its
        membership follows :meth:`pairs_within`'s ``np.hypot`` rule.

        Returns:
            One label list per center, in ``centers`` order.
        """
        center_idx, label_idx = self.pairs_within(centers, radius_m)
        labels = self._bulk_view()[0]
        row_hits = [labels[i] for i in label_idx.tolist()]
        bounds = np.searchsorted(
            center_idx, np.arange(len(centers) + 1)
        ).tolist()
        return [
            row_hits[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    def neighbors_of(self, label: Hashable, radius_m: float) -> List[Hashable]:
        """Labels within ``radius_m`` of ``label``'s point, excluding itself."""
        center = self._positions[label]
        return [other for other in self.within(center, radius_m) if other != label]
