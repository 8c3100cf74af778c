"""Euclidean distance helpers used throughout the library.

All distances are in metres. The functions accept anything unpackable
as ``(x, y)`` — :class:`repro.geometry.point.Point`, tuples, or numpy
rows — so callers never need explicit conversions.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.geometry.point import PointLike


def euclidean(a: PointLike, b: PointLike) -> float:
    """Euclidean distance between two planar points.

    ``math.hypot`` of the coordinate differences — the repo's one
    distance rule: every cached distance, tour leg and "within ``r``"
    membership test (:mod:`repro.geometry.disk_index`) is this float.
    """
    ax, ay = a
    bx, by = b
    return math.hypot(ax - bx, ay - by)


def path_length(points: Sequence[PointLike]) -> float:
    """Total length of the open polyline through ``points`` in order."""
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += euclidean(a, b)
    return total


def tour_length(points: Sequence[PointLike]) -> float:
    """Total length of the closed tour through ``points`` in order.

    The closing edge from the last point back to the first is included.
    A tour of fewer than two points has length zero.
    """
    if len(points) < 2:
        return 0.0
    return path_length(points) + euclidean(points[-1], points[0])
