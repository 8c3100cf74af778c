"""Rooted min-max splitting of one tour into ``K`` closed tours.

Given a single closed tour through all sojourn locations (rooted at the
depot) where every node also carries a *service weight* (its charging
duration), split the visit order into at most ``K`` consecutive
segments. Each segment becomes one MCV's closed tour
``depot -> segment -> depot``; a segment's cost is its travel time plus
the service weights of its nodes. The goal is to minimise the maximum
segment cost.

This is the Frederickson–Hecht–Kim ``k-SPLITOUR`` idea extended with
node weights, and it is the splitting step inside our implementation of
the Liang et al. approximation for the ``K``-optimal closed tour
problem (the paper's Definition 2). For a fixed visit order the optimal
consecutive split is found exactly by binary search over the bound
``B`` with a greedy feasibility check: walk the order, cut whenever
adding the next node would push the current segment (plus its return
leg) beyond ``B``. Greedy packing is optimal for consecutive splits, so
the binary search converges to the best achievable max-cost for the
given order. The binary search and the greedy packer are the
leg-array kernels :func:`repro.tours.arrays.split_min_max_ranges` and
:func:`repro.tours.arrays.greedy_split_cuts`.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.distcache import DistanceCache
from repro.geometry.point import PointLike
from repro.tours.arrays import (
    ArrayDistance,
    dense_tour_legs,
    greedy_split_cuts,
    split_min_max_ranges,
    tour_legs,
)

#: Pairwise distance lookup over node labels; ``None`` means the depot.
DistanceFn = Callable[[Hashable, Hashable], float]


def segment_cost(
    segment: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    speed_mps: float,
    service: Callable[[Hashable], float],
    dist: Optional[DistanceFn] = None,
) -> float:
    """Delay of one closed tour depot -> segment -> depot."""
    if not segment:
        return 0.0
    if dist is None:
        dist = DistanceCache(positions, depot)
    travel = dist(None, segment[0])
    for a, b in zip(segment, segment[1:]):
        travel += dist(a, b)
    travel += dist(segment[-1], None)
    return travel / speed_mps + sum(service(v) for v in segment)


def greedy_split_with_bound(
    order: Sequence[Hashable],
    bound: float,
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    speed_mps: float,
    service: Callable[[Hashable], float],
    dist: Optional[DistanceCache] = None,
) -> Optional[List[List[Hashable]]]:
    """Greedily cut ``order`` into segments of cost ≤ ``bound``.

    Returns the list of segments, or ``None`` when some single node
    already exceeds the bound (no feasible split exists for any number
    of vehicles).
    """
    if dist is None:
        dist = DistanceCache(positions, depot)
    cuts = greedy_split_cuts(tour_legs(dist, order, service), bound, speed_mps)
    if cuts is None:
        return None
    order = list(order)
    bounds = [0, *cuts, len(order)]
    return [
        order[bounds[k] : bounds[k + 1]]
        for k in range(len(bounds) - 1)
        if bounds[k] < bounds[k + 1]
    ]


def split_tour_min_max(
    order: Sequence[Hashable],
    num_tours: int,
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    speed_mps: float,
    service: Callable[[Hashable], float],
    dist: Optional[DistanceCache] = None,
    dense: Optional[ArrayDistance] = None,
) -> Tuple[List[List[Hashable]], float]:
    """Best consecutive split of ``order`` into ≤ ``num_tours`` segments.

    Binary-searches the max-cost bound ``B``; for each candidate the
    greedy packer checks whether ``order`` fits into at most
    ``num_tours`` segments of cost ≤ ``B``. The legs are gathered from
    ``dense``, a matrix whose codec holds the order's nodes in any order
    (such as the backbone's); when omitted, one is built over ``order``
    from ``dist`` (or a fresh cache). Its entries are the cache's
    floats, so the split is the same either way.

    Returns:
        ``(segments, achieved_bound)`` where ``segments`` has exactly
        ``num_tours`` entries (padded with empty segments), and
        ``achieved_bound`` is the realised maximum segment cost.

    Raises:
        ValueError: if ``num_tours`` is not positive.
    """
    if num_tours <= 0:
        raise ValueError(f"num_tours must be positive, got {num_tours}")
    order = list(order)
    if not order:
        return [[] for _ in range(num_tours)], 0.0
    if dense is None:
        if dist is None:
            dist = DistanceCache(positions, depot)
        dense = ArrayDistance.from_cache(dist, order)
    labels = dense.codec.labels
    service_s = np.fromiter(
        (service(node) for node in labels),
        dtype=np.float64,
        count=len(labels),
    )
    legs = dense_tour_legs(dense, dense.codec.encode(order), service_s)
    ranges, achieved = split_min_max_ranges(legs, num_tours, speed_mps)
    padded = [order[s:e] for s, e in ranges]
    padded.extend([] for _ in range(num_tours - len(padded)))
    return padded, achieved
