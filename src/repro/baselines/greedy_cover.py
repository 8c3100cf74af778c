"""GreedyCover: a multi-node set-cover heuristic (extension baseline).

Not one of the paper's four baselines — an additional comparison point
that isolates *which part* of ``Appro``'s advantage comes from
multi-node charging itself and which from the MIS/conflict machinery.

GreedyCover uses multi-node charging but nothing else from Algorithm 1:

1. pick sojourn locations by the classic greedy set cover — repeatedly
   stop at the sensor location whose charging disk covers the most
   still-uncovered requested sensors;
2. cover the chosen locations with K min-max tours (same subroutine as
   everyone else);
3. ignore the no-simultaneous-charging constraint during construction,
   then repair any cross-tour overlaps by inserting waits.

Because greedy set cover picks *fewer, denser* stops than an MIS but
pays with disk overlaps (and therefore conflicts and repair waits), the
comparison against ``Appro`` in ``benchmarks/test_ablation_greedy.py``
shows the cost of ignoring the constraint.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Set

from repro.core.conflicts import resolve_conflicts
from repro.core.context import PlanningContext
from repro.core.schedule import ChargingSchedule
from repro.energy.charging import ChargerSpec
from repro.network.topology import WRSN


def greedy_cover_schedule(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    lifetimes: Optional[Mapping[int, float]] = None,
    enforce_feasibility: bool = True,
    context: Optional[PlanningContext] = None,
) -> ChargingSchedule:
    """Schedule the request set with the GreedyCover heuristic.

    Args:
        network: the WRSN instance.
        request_ids: the to-be-charged sensors ``V_s``.
        num_chargers: ``K``.
        charger: MCV parameters (paper defaults when omitted).
        lifetimes: accepted for the uniform planner call and ignored:
            the set cover does not rank by urgency.
        enforce_feasibility: repair cross-tour overlaps with waits.
        context: the :class:`~repro.core.context.PlanningContext`
            supplying the shared distance cache and memoized charge
            times, coverage sets and min-max tour solutions; built here
            when omitted.

    Returns:
        A :class:`~repro.core.schedule.ChargingSchedule` (same surface
        as ``Appro``'s result, so the validator and simulator apply).
    """
    if num_chargers <= 0:
        raise ValueError(f"num_chargers must be positive, got {num_chargers}")
    spec = charger if charger is not None else ChargerSpec()
    requests = sorted(set(request_ids))
    positions = network.positions()
    depot = network.depot.position
    if context is None:
        context = PlanningContext(network, requests, spec)
    charge_times = context.charge_times_for(requests)
    # Every requested sensor location is a candidate sojourn location.
    coverage = context.coverage_for(requests)

    # 1. Greedy set cover.
    uncovered: Set[int] = set(requests)
    chosen: List[int] = []
    while uncovered:
        best = max(
            requests,
            key=lambda c: (len(coverage[c] & uncovered), -c),
        )
        gain = coverage[best] & uncovered
        if not gain:  # cannot happen while uncovered sensors remain
            best = min(uncovered)
            gain = {best}
        chosen.append(best)
        uncovered -= gain

    schedule = ChargingSchedule(
        depot=depot,
        positions=positions,
        coverage=coverage,
        charge_times=charge_times,
        charger=spec,
        num_tours=num_chargers,
        distance=context.distance,
    )

    # 2. K min-max tours over the chosen stops, weighted by the full
    # sojourn bound (residual durations are fixed at append time).
    tau = {
        c: max(
            (charge_times[u] for u in coverage[c] if u in charge_times),
            default=0.0,
        )
        for c in chosen
    }
    tours, _ = context.minmax_tours(chosen, num_chargers, tau)
    for k, tour in enumerate(tours):
        for node in tour:
            schedule.append_stop(k, node)

    # 3. Constraint repair.
    if enforce_feasibility:
        resolve_conflicts(schedule)
    return schedule
