"""K-EDF: Earliest Deadline First with K mobile chargers.

Paper description (Section VI-A, benchmark (i)): sort the to-be-charged
sensors by residual lifetime ascending, partition them into consecutive
groups of ``K`` (the last group may be smaller), and assign the ``K``
sensors of each group to the ``K`` MCVs so the total travel distance
from the vehicles' current locations is minimised — a linear assignment
problem, solved here with ``scipy.optimize.linear_sum_assignment``.

Each MCV serves its per-group assignments in order, charging one sensor
at a time (one-to-one), then returns to the depot.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.baselines.common import default_lifetimes, one_to_one_schedule
from repro.core.context import PlanningContext
from repro.core.schedule import ChargingSchedule
from repro.energy.charging import ChargerSpec
from repro.network.topology import WRSN


def kedf_schedule(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    lifetimes: Optional[Mapping[int, float]] = None,
    context: Optional[PlanningContext] = None,
) -> ChargingSchedule:
    """Schedule the request set with the K-EDF heuristic.

    Args:
        network: the WRSN instance.
        request_ids: the to-be-charged sensors ``V_s``.
        num_chargers: ``K``.
        charger: MCV parameters (paper defaults when omitted).
        lifetimes: residual lifetime per requested sensor in seconds;
            drives the EDF order. Falls back to a rate-proportional
            estimate when omitted.
        context: the :class:`~repro.core.context.PlanningContext`
            supplying the shared distance cache and memoized charge
            times; built here when omitted.

    Returns:
        A one-to-one :class:`~repro.core.schedule.ChargingSchedule`
        (see :func:`~repro.baselines.common.one_to_one_schedule`).
    """
    if num_chargers <= 0:
        raise ValueError(f"num_chargers must be positive, got {num_chargers}")
    spec = charger if charger is not None else ChargerSpec()
    requests = sorted(set(request_ids))
    if context is None:
        context = PlanningContext(network, requests, spec)
    dist = context.distance
    life = default_lifetimes(network, requests, lifetimes)

    # EDF order: most urgent first.
    ordered = sorted(requests, key=lambda sid: (life[sid], sid))

    # Per-MCV assignment sequences built group by group.
    sequences: List[List[int]] = [[] for _ in range(num_chargers)]
    # Track each vehicle's location after its already-assigned visits
    # (``None`` = still at the depot).
    locations: List[Optional[int]] = [None for _ in range(num_chargers)]
    for g in range(0, len(ordered), num_chargers):
        group = ordered[g : g + num_chargers]
        cost = np.array(
            [
                [dist(locations[k], sid) for sid in group]
                for k in range(num_chargers)
            ]
        )
        rows, cols = linear_sum_assignment(cost)
        for k, j in zip(rows, cols):
            sid = group[j]
            sequences[k].append(sid)
            locations[k] = sid

    return one_to_one_schedule(
        context, requests, spec, num_chargers, sequences
    )
