"""NETWRAP: greedy next-sensor selection per charger (Wang et al.).

Paper description (Section VI-A, benchmark (ii)): each MCV selects as
its next target the to-be-charged sensor with the minimum *weighted
sum* of (a) the travel time from the MCV's current location and (b) the
sensor's residual lifetime; ties broken arbitrarily when a sensor is
wanted by multiple MCVs.

We run the natural event-driven realisation: vehicles act in the order
they become free; the free vehicle claims the unclaimed sensor with the
best score. Both terms are normalised by their instance-wide maxima so
the weighting is scale-free; ``travel_weight`` tunes the trade-off
(0.5 = equal weight, the default).
"""

from __future__ import annotations

import heapq
import math
from typing import List, Mapping, Optional, Sequence, Set

from repro.baselines.common import (
    BaselineSchedule,
    Visit,
    default_lifetimes,
)
from repro.core.context import PlanningContext
from repro.energy.charging import ChargerSpec
from repro.network.topology import WRSN


def netwrap_schedule(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    lifetimes: Optional[Mapping[int, float]] = None,
    travel_weight: float = 0.5,
    context: Optional[PlanningContext] = None,
) -> BaselineSchedule:
    """Schedule the request set with the NETWRAP greedy heuristic.

    Args:
        network: the WRSN instance.
        request_ids: the to-be-charged sensors ``V_s``.
        num_chargers: ``K``.
        charger: MCV parameters (paper defaults when omitted).
        lifetimes: residual lifetime per requested sensor (seconds).
        travel_weight: weight of the normalised travel-time term;
            ``1 - travel_weight`` goes to the normalised residual
            lifetime. Must lie in ``[0, 1]``.
        context: the :class:`~repro.core.context.PlanningContext`
            supplying the shared distance cache and memoized charge
            times; built here when omitted.

    Returns:
        A :class:`~repro.baselines.common.BaselineSchedule`.
    """
    if num_chargers <= 0:
        raise ValueError(f"num_chargers must be positive, got {num_chargers}")
    if not 0.0 <= travel_weight <= 1.0:
        raise ValueError(f"travel_weight must be in [0, 1]: {travel_weight}")
    spec = charger if charger is not None else ChargerSpec()
    requests = sorted(set(request_ids))
    positions = network.positions()
    depot = network.depot.position
    if context is None:
        context = PlanningContext(network, requests, spec)
    dist = context.distance
    charge_times = context.charge_times_for(requests)
    life = default_lifetimes(network, requests, lifetimes)

    max_life = max(life.values(), default=1.0) or 1.0
    # The field diagonal is a normalising length, not a distance
    # between two points, so no cache or radius query applies.
    diag = (
        math.hypot(network.field.width, network.field.height)  # repro-lint: disable=euclidean-call
        / spec.travel_speed_mps
    )

    unclaimed: Set[int] = set(requests)
    itineraries: List[List[Visit]] = [[] for _ in range(num_chargers)]
    # (time_free, mcv_index) heap; all vehicles start at the depot at 0.
    free_at = [(0.0, k) for k in range(num_chargers)]
    heapq.heapify(free_at)
    # Vehicle locations as sensor labels (``None`` = at the depot).
    locations: dict = {k: None for k in range(num_chargers)}

    while unclaimed:
        now, k = heapq.heappop(free_at)

        def score(sid: int) -> float:
            travel = dist(locations[k], sid) / spec.travel_speed_mps
            return (
                travel_weight * travel / max(diag, 1e-12)
                + (1.0 - travel_weight) * life[sid] / max_life
            )

        target = min(unclaimed, key=lambda sid: (score(sid), sid))
        unclaimed.discard(target)
        travel_s = dist(locations[k], target) / spec.travel_speed_mps
        arrival = now + travel_s
        finish = arrival + charge_times[target]
        itineraries[k].append(
            Visit(sensor_id=target, arrival_s=arrival, finish_s=finish)
        )
        locations[k] = target
        heapq.heappush(free_at, (finish, k))

    return BaselineSchedule(depot, positions, spec, itineraries, distance=dist)
