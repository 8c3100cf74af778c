"""Minimum number of chargers to meet a delay target.

The companion problem of Liang et al. (the paper's reference [13, 14]):
instead of fixing ``K`` and minimising the longest delay, fix a delay
budget ``B`` (e.g. "every requested sensor must be reachable and
charged within 24 h") and ask for the *fewest* mobile chargers whose
min-max tours all fit within ``B``.

Because the longest delay achieved by the K-tour solver is
non-increasing in ``K`` (more vehicles never hurt a min-max split of
the same backbone), a binary search over ``K`` against the solver gives
a simple, practical answer on top of the machinery this library already
has. The result inherits the solver's approximation character: the
returned ``K`` is sufficient for the *approximate* solver and therefore
for the optimum as well; it may exceed the true minimum by the solver's
approximation slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Mapping, Optional, Sequence

from repro.geometry.distcache import DistanceCache
from repro.geometry.point import PointLike
from repro.tours.kminmax import solve_k_minmax_tours
from repro.tours.splitting import segment_cost


@dataclass(frozen=True)
class MinChargersResult:
    """Outcome of a minimum-chargers search.

    Attributes:
        num_chargers: the smallest fleet size found to satisfy the
            budget (``None`` when even ``max_chargers`` fails).
        achieved_delay_s: the longest tour delay at that fleet size.
        tours: the witness tours.
    """

    num_chargers: Optional[int]
    achieved_delay_s: float
    tours: List[List[Hashable]]

    @property
    def feasible(self) -> bool:
        return self.num_chargers is not None


def minimum_chargers_for_bound(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    delay_bound_s: float,
    speed_mps: float,
    service: Callable[[Hashable], float],
    max_chargers: int = 64,
    tsp_method: str = "christofides",
    dist: Optional[DistanceCache] = None,
) -> MinChargersResult:
    """Fewest chargers whose min-max tours fit within ``delay_bound_s``.

    Args:
        nodes: sojourn locations to cover.
        positions: id -> position.
        depot: common depot.
        delay_bound_s: the per-tour delay budget ``B``.
        speed_mps: vehicle speed.
        service: per-node charging duration.
        max_chargers: search ceiling; if even this many vehicles cannot
            meet the budget (e.g. one node's round trip alone exceeds
            it), the result is infeasible.
        tsp_method: backbone construction.
        dist: optional shared depot-carrying distance cache (``None``
            label = depot); one cache is created for the whole search
            when omitted — previously every probe of the ``K`` search
            rebuilt its own.

    Returns:
        A :class:`MinChargersResult`.

    Raises:
        ValueError: on a non-positive bound or ceiling.
    """
    if delay_bound_s <= 0:
        raise ValueError(f"delay bound must be positive: {delay_bound_s}")
    if max_chargers <= 0:
        raise ValueError(f"max_chargers must be positive: {max_chargers}")
    node_list = list(nodes)
    if not node_list:
        return MinChargersResult(
            num_chargers=0, achieved_delay_s=0.0, tours=[]
        )
    if dist is None:
        dist = DistanceCache(positions, depot)

    # Quick infeasibility test: a single node whose round trip plus
    # service exceeds the budget can never be served, by any fleet.
    worst_single = max(
        segment_cost([n], positions, depot, speed_mps, service, dist)
        for n in node_list
    )
    if worst_single > delay_bound_s:
        return MinChargersResult(
            num_chargers=None, achieved_delay_s=worst_single, tours=[]
        )

    def attempt(k: int):
        return solve_k_minmax_tours(
            node_list, positions, depot, k, speed_mps, service,
            tsp_method=tsp_method, dist=dist,
        )

    # Exponential ramp-up to find an upper bound, then binary search.
    hi = 1
    tours, delay = attempt(hi)
    best = (hi, tours, delay)
    while delay > delay_bound_s and hi < max_chargers:
        hi = min(hi * 2, max_chargers)
        tours, delay = attempt(hi)
        best = (hi, tours, delay)
    if delay > delay_bound_s:
        return MinChargersResult(
            num_chargers=None, achieved_delay_s=delay, tours=tours
        )

    lo = hi // 2 if hi > 1 else 1
    # Invariant: attempt(hi) meets the budget; attempt(lo) unknown.
    while lo < hi:
        mid = (lo + hi) // 2
        tours, delay = attempt(mid)
        if delay <= delay_bound_s:
            hi = mid
            best = (mid, tours, delay)
        else:
            lo = mid + 1
    k, tours, delay = best
    if k != hi:
        tours, delay = attempt(hi)
    return MinChargersResult(
        num_chargers=hi, achieved_delay_s=delay, tours=tours
    )
