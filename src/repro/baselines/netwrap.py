"""NETWRAP: greedy next-sensor selection per charger (Wang et al.).

Paper description (Section VI-A, benchmark (ii)): each MCV selects as
its next target the to-be-charged sensor with the minimum *weighted
sum* of (a) the travel time from the MCV's current location and (b) the
sensor's residual lifetime; ties broken arbitrarily when a sensor is
wanted by multiple MCVs.

We run the natural event-driven realisation: vehicles act in the order
they become free (a vehicle's free time is the finish time of its last
stop); the free vehicle claims the unclaimed sensor with the best
score. Both terms are normalised by their instance-wide maxima so
the weighting is scale-free; ``travel_weight`` tunes the trade-off
(0.5 = equal weight, the default).
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping, Optional, Sequence, Set

from repro.baselines.common import default_lifetimes, one_to_one_schedule
from repro.core.context import PlanningContext
from repro.core.schedule import ChargingSchedule
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
) -> ChargingSchedule:
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
        A one-to-one :class:`~repro.core.schedule.ChargingSchedule`
        (see :func:`~repro.baselines.common.one_to_one_schedule`).
    """
    if num_chargers <= 0:
        raise ValueError(f"num_chargers must be positive, got {num_chargers}")
    if not 0.0 <= travel_weight <= 1.0:
        raise ValueError(f"travel_weight must be in [0, 1]: {travel_weight}")
    spec = charger if charger is not None else ChargerSpec()
    requests = sorted(set(request_ids))
    if context is None:
        context = PlanningContext(network, requests, spec)
    dist = context.distance
    life = default_lifetimes(network, requests, lifetimes)

    max_life = max(life.values(), default=1.0) or 1.0
    # The field diagonal is a normalising length, not a distance
    # between two points, so no cache or radius query applies.
    diag = (
        math.hypot(network.field.width, network.field.height)  # repro-lint: disable=euclidean-call
        / spec.travel_speed_mps
    )

    schedule = one_to_one_schedule(context, requests, spec, num_chargers)
    unclaimed: Set[int] = set(requests)
    # (time_free, mcv_index) heap; all vehicles start at the depot at 0.
    free_at = [(0.0, k) for k in range(num_chargers)]
    heapq.heapify(free_at)

    while unclaimed:
        _, k = heapq.heappop(free_at)
        tour = schedule.tours[k]
        # The vehicle's location as a sensor label (``None`` = depot).
        here = tour[-1] if tour else None

        def score(sid: int) -> float:
            travel = dist(here, sid) / spec.travel_speed_mps
            return (
                travel_weight * travel / max(diag, 1e-12)
                + (1.0 - travel_weight) * life[sid] / max_life
            )

        target = min(unclaimed, key=lambda sid: (score(sid), sid))
        unclaimed.discard(target)
        schedule.append_stop(k, target)
        heapq.heappush(free_at, (schedule.finish[target], k))
    return schedule
