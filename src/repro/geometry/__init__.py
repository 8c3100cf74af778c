"""Planar geometry substrate for WRSN deployments.

Provides the 2-D primitives the rest of the library builds on: points
and Euclidean distances (:mod:`repro.geometry.point`,
:mod:`repro.geometry.distance`), random sensor deployments over a
rectangular field (:mod:`repro.geometry.deployment`) and the KD-tree
index behind every fixed-radius neighbour query
(:mod:`repro.geometry.disk_index`).
"""

from repro.geometry.deployment import (
    Field,
    clustered_deployment,
    grid_deployment,
    uniform_deployment,
)
from repro.geometry.disk_index import DiskIndex
from repro.geometry.distance import (
    euclidean,
    path_length,
    tour_length,
)
from repro.geometry.distcache import DistanceCache
from repro.geometry.point import Point, as_point, centroid

__all__ = [
    "DiskIndex",
    "DistanceCache",
    "Field",
    "Point",
    "as_point",
    "centroid",
    "clustered_deployment",
    "euclidean",
    "grid_deployment",
    "path_length",
    "tour_length",
    "uniform_deployment",
]
