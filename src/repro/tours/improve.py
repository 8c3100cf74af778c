"""Local-search improvement of closed tours.

2-opt and Or-opt over a depot-rooted cycle. Both operate on the visit
*order* (the depot stays fixed at the boundary) and only shorten travel
— node service times are order-invariant sums, so shorter travel is
strictly better for every delay objective in this library. The moves
themselves are the index-space kernels
:func:`repro.tours.arrays.two_opt_indices` and
:func:`repro.tours.arrays.or_opt_indices`.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Mapping, Optional, Sequence

from repro.geometry.distcache import DistanceCache
from repro.geometry.point import PointLike
from repro.tours.arrays import ArrayDistance, or_opt_indices, two_opt_indices

#: Pairwise distance lookup over node labels; ``None`` means the depot.
DistanceFn = Callable[[Hashable, Hashable], float]


def _cycle_length(order: Sequence[Hashable], dist) -> float:
    if not order:
        return 0.0
    total = dist(None, order[0])
    for a, b in zip(order, order[1:]):
        total += dist(a, b)
    total += dist(order[-1], None)
    return total


def _dense_over(
    order: List[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    dist: Optional[DistanceCache],
    dense: Optional[ArrayDistance],
) -> ArrayDistance:
    """The matrix the moves read: ``dense`` when given, else one built
    over ``order`` from ``dist`` (or a fresh cache).

    The moves compare matrix entries only, so any codec that holds the
    order's nodes, in any order, makes the same moves.
    """
    if dense is not None:
        return dense
    if dist is None:
        dist = DistanceCache(positions, depot)
    return ArrayDistance.from_cache(dist, order)


def two_opt(
    order: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    max_rounds: int = 30,
    min_gain: float = 1e-9,
    dist: Optional[DistanceCache] = None,
    dense: Optional[ArrayDistance] = None,
) -> List[Hashable]:
    """First-improvement 2-opt on a depot-rooted cycle.

    Repeatedly reverses segments ``order[i..j]`` while that shortens
    travel, up to ``max_rounds`` full passes. ``dist`` is a
    depot-carrying cache, built from ``positions`` and ``depot`` when
    omitted. ``dense`` is a matrix whose codec holds the order's nodes
    in any order (the moves read only its entries), built from
    ``dist`` when omitted.

    Returns a new order; the input is not mutated.
    """
    current = list(order)
    if len(current) < 3:
        return current
    dense = _dense_over(current, positions, depot, dist, dense)
    improved = two_opt_indices(
        dense.matrix,
        dense.codec.depot_index,
        dense.codec.encode(current),
        max_rounds=max_rounds,
        min_gain=min_gain,
    )
    return dense.codec.decode(improved)


def or_opt(
    order: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    segment_lengths: Sequence[int] = (1, 2, 3),
    max_rounds: int = 10,
    min_gain: float = 1e-9,
    dist: Optional[DistanceCache] = None,
    dense: Optional[ArrayDistance] = None,
) -> List[Hashable]:
    """Or-opt: relocate short segments to better positions in the cycle.

    Complements 2-opt (which cannot move a node without reversing).
    ``dist`` is a depot-carrying cache, built from ``positions`` and
    ``depot`` when omitted. ``dense`` is a matrix whose codec holds the
    order's nodes in any order (the moves read only its entries),
    built from ``dist`` when omitted. Returns a new order; the input is
    not mutated.
    """
    current = list(order)
    if len(current) < 2:
        return current
    dense = _dense_over(current, positions, depot, dist, dense)
    moved = or_opt_indices(
        dense.matrix,
        dense.codec.depot_index,
        dense.codec.encode(current),
        segment_lengths=segment_lengths,
        max_rounds=max_rounds,
        min_gain=min_gain,
    )
    return dense.codec.decode(moved)


def cycle_travel_length(
    order: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    dist: Optional[DistanceFn] = None,
) -> float:
    """Travel length of the depot-rooted cycle through ``order``."""
    return _cycle_length(
        order, dist if dist is not None else DistanceCache(positions, depot)
    )
