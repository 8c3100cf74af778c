"""Fixed-radius neighbour queries: the one "within ``r``" of the repo.

Building the charging graph ``G_c`` requires, for each of up to
several thousand sensors, all other sensors within the charging radius
``γ``; the auxiliary graph ``H``, the data graph and the coverage sets
``N_c⁺(v)`` ask the same question at other radii. A naive all-pairs
scan is O(n²); :meth:`DiskIndex.pairs_within` answers every query of a
batch at once from a KD-tree, and decides membership with the repo's
one distance rule, ``math.hypot`` (:func:`repro.geometry.distance.
euclidean`, :meth:`repro.geometry.point.Point.distance_to`). So a pair
is within ``r`` here exactly when its ``distance_to`` is ``<= r``.

The index is immutable after construction, matching its use: WRSN
deployments are static for the lifetime of a scheduling instance.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.point import PointLike

#: Relative and absolute slack on the KD-tree query radius in
#: :meth:`DiskIndex.pairs_within`. The tree measures distance with its
#: own arithmetic, which may round a boundary pair a few ulps above
#: ``math.hypot``; the slack makes its hits a strict superset, and the
#: exact ``math.hypot`` filter then decides membership.
_TREE_REL_SLACK = 1e-9
_TREE_ABS_SLACK = 1e-12

#: Relative half-width of the band around ``r²`` inside which
#: :meth:`DiskIndex.pairs_within` asks ``math.hypot``. numpy's
#: ``dx·dx + dy·dy`` is within ~3e-16 relative of the exact square and
#: ``math.hypot`` within an ulp of the exact distance, so a squared
#: distance outside the band gets the verdict ``math.hypot`` would.
_HYPOT_BAND_REL = 1e-9

#: Range of ``r²`` over which the squared-distance verdict is sound:
#: far from underflow, where the relative bound above fails, and from
#: overflow. Outside it every pair goes through ``math.hypot``.
_SQ_RANGE = (1e-200, 1e200)


class DiskIndex:
    """KD-tree index over labelled planar points.

    Args:
        points: mapping from an arbitrary hashable label (typically a
            sensor id) to its ``(x, y)`` position. The mapping's order
            is the index's label order.
    """

    def __init__(self, points: Mapping[Hashable, PointLike]):
        self._positions: Dict[Hashable, Tuple[float, float]] = {
            label: (float(pos[0]), float(pos[1]))
            for label, pos in points.items()
        }
        # Label list, coordinate array and KD-tree for pairs_within,
        # built on first use.
        self._bulk: Optional[Tuple[List[Hashable], np.ndarray, cKDTree]] = None

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._positions

    def position(self, label: Hashable) -> Tuple[float, float]:
        """Stored position of ``label``."""
        return self._positions[label]

    def labels(self) -> Iterable[Hashable]:
        """All labels in the index."""
        return self._positions.keys()

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
        ``math.hypot(cx - px, cy - py) <= radius_m`` — the boundary is
        inclusive, matching the paper's ``d(u, v) <= γ``, and the rule
        is :meth:`Point.distance_to`'s, so the slack never adds a pair.
        Only pairs whose squared distance lies within a relative
        ``1e-9`` of ``radius_m²`` call ``math.hypot``; the squared
        distance decides the rest, with the same verdict.

        Returns:
            ``(center_index, label_index)`` integer arrays of equal
            length, sorted by center index and, within a center, by
            label index (the index's insertion order).
        """
        centers_arr = np.asarray(
            [(float(c[0]), float(c[1])) for c in centers], dtype=float
        ).reshape(-1, 2)
        return self._pairs(centers_arr, cKDTree(centers_arr), radius_m)

    def self_pairs_within(
        self, radius_m: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`pairs_within` with the index's own points, in label
        order, as the centers — the same arrays, from the index's own
        coordinates and tree instead of a second conversion and tree.
        """
        _, coords, tree = self._bulk_view()
        return self._pairs(coords, tree, radius_m)

    def pair_distances(
        self, first: np.ndarray, second: np.ndarray
    ) -> List[float]:
        """The distance from label index ``first[k]`` to ``second[k]``
        for every ``k``: ``math.hypot`` of the coordinate differences,
        the float :meth:`Point.distance_to` gives from the first point
        (numpy float64 subtraction rounds as Python's does)."""
        _, coords, _ = self._bulk_view()
        diff = coords[first] - coords[second]
        return list(map(math.hypot, diff[:, 0].tolist(), diff[:, 1].tolist()))

    def _pairs(
        self, centers_arr: np.ndarray, center_tree: cKDTree, radius_m: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        if radius_m < 0:
            raise ValueError(f"radius must be non-negative, got {radius_m}")
        _, coords, tree = self._bulk_view()
        hits = center_tree.sparse_distance_matrix(
            tree,
            radius_m * (1.0 + _TREE_REL_SLACK) + _TREE_ABS_SLACK,
            output_type="ndarray",
        )
        center_idx = hits["i"].astype(np.intp)
        label_idx = hits["j"].astype(np.intp)
        # numpy float64 subtraction rounds exactly as Python's does, so
        # these are the differences euclidean() would form.
        diff = centers_arr[center_idx] - coords[label_idx]
        r_sq = radius_m * radius_m
        if _SQ_RANGE[0] <= r_sq <= _SQ_RANGE[1]:
            sq = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
            keep = sq <= r_sq * (1.0 - _HYPOT_BAND_REL)
            band = np.flatnonzero(
                ~keep & ~(sq > r_sq * (1.0 + _HYPOT_BAND_REL))
            )
        else:
            keep = np.zeros(len(diff), dtype=bool)
            band = np.arange(len(diff))
        # In the band (NaN included), the math.hypot float decides.
        dx, dy = diff[band].T.tolist()
        keep[band] = np.array(list(map(math.hypot, dx, dy))) <= radius_m
        center_idx, label_idx = center_idx[keep], label_idx[keep]
        order = np.argsort(center_idx * len(coords) + label_idx)
        return center_idx[order], label_idx[order]

    def within_bulk(
        self, centers: Sequence[PointLike], radius_m: float
    ) -> List[List[Hashable]]:
        """One label list per center, from :meth:`pairs_within`.

        Each list holds the labels in index insertion order.

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
