"""Memoized pairwise-distance lookup over labelled points.

Every layer of the scheduling stack — TSP constructions, 2-opt, tour
splitting, schedule finish-time recursions, the baselines' choices —
needs the same Euclidean distances between the same few hundred points,
and historically each kept its own ad-hoc ``euclidean()`` closure. The
:class:`DistanceCache` is the single shared lookup: it is keyed by
point *labels* (sensor ids, with ``None`` denoting the depot), computes
each pair exactly once via :func:`repro.geometry.distance.euclidean`
and memoizes the result under both orientations.

Because the cached value *is* the ``euclidean()`` result (``math.hypot``
— never a vectorised reimplementation), threading a cache through a
code path cannot change any computed float: schedules built through a
cache are byte-identical to the pre-cache code paths.

The cache is deliberately label-agnostic: any hashable labels work,
and ``None`` is the depot. Tour code reads it through
:meth:`DistanceCache.dense_matrix`, which puts the depot last.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.distance import euclidean
from repro.geometry.point import PointLike


class DistanceCache:
    """Label-keyed memoized Euclidean distances.

    Args:
        positions: label -> ``(x, y)`` position. The mapping is kept by
            reference and must not change while the cache is in use
            (WRSN deployments are static, so in practice it never does).
        depot: position the label ``None`` resolves to; omit for caches
            over pure label spaces with no depot.
    """

    def __init__(
        self,
        positions: Mapping[Hashable, PointLike],
        depot: Optional[PointLike] = None,
    ):
        self._positions = positions
        self._depot = depot
        self._memo: Dict[Tuple[Hashable, Hashable], float] = {}
        self._dense: Dict[Tuple[Hashable, ...], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    @property
    def has_depot(self) -> bool:
        """Whether the label ``None`` resolves to a depot position."""
        return self._depot is not None

    def position_of(self, label: Hashable) -> PointLike:
        """Resolve a label (``None`` = depot) to its position.

        Raises:
            ValueError: when ``None`` is queried on a depot-less cache.
        """
        if label is None:
            if self._depot is None:
                raise ValueError(
                    "this DistanceCache has no depot; the label None "
                    "cannot be resolved"
                )
            return self._depot
        return self._positions[label]

    def __call__(self, a: Hashable, b: Hashable) -> float:
        """Distance between the points labelled ``a`` and ``b``."""
        if a == b:
            return 0.0
        key = (a, b)
        cached = self._memo.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        d = euclidean(self.position_of(a), self.position_of(b))
        self._memo[key] = d
        self._memo[(b, a)] = d
        return d

    def dense_matrix(self, labels: Sequence[Hashable]) -> np.ndarray:
        """Dense ``(n+1) x (n+1)`` float64 distance matrix over ``labels``.

        Row/column ``i < n`` is ``labels[i]``; the last row/column is
        the depot. The result is memoized per label tuple (the array
        tour engine canonicalises the order, so all kernels over one
        node set share a single build) and must not be mutated.

        Every entry is the float :func:`repro.geometry.distance.
        euclidean` returns — ``math.hypot`` of the same coordinate
        differences, evaluated pairwise in a Python loop over the
        coordinates read once into two lists, **not** a numpy
        broadcast. CPython's ``math.hypot`` is a correctly-rounded
        algorithm that disagrees with ``np.hypot`` in the last ulp on
        ~0.6% of pairs (measured on x86-64 Linux), and the array tour
        engine's byte-parity contract requires the cached scalar value
        and the matrix entry to be the same float. The build is
        O(n^2/2) ``hypot`` calls (symmetry halves it), a one-time cost
        amortised across every kernel call on the set.

        Raises:
            ValueError: on a depot-less cache (the matrix layout
                reserves the last index for the depot).
        """
        if self._depot is None:
            raise ValueError(
                "dense_matrix requires a depot-carrying DistanceCache"
            )
        key = tuple(labels)
        cached = self._dense.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        points = [self.position_of(label) for label in key]
        points.append(self._depot)
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        size = len(points)
        matrix = np.zeros((size, size), dtype=np.float64)
        hypot = math.hypot
        for i in range(size - 1):
            ox, oy = xs[i], ys[i]
            matrix[i, i + 1 :] = [
                hypot(ox - x, oy - y)
                for x, y in zip(xs[i + 1 :], ys[i + 1 :])
            ]
        matrix += matrix.T
        matrix.flags.writeable = False
        self._dense[key] = matrix
        return matrix

    def __len__(self) -> int:
        """Number of stored (directed) pair entries."""
        return len(self._memo)

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters and the number of cached pairs."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "pairs": len(self._memo) // 2,
        }


__all__ = ["DistanceCache"]
