"""K-minMax: min-max K closed tours over all sensors (Liang et al.).

Paper description (Section VI-A, benchmark (iii)): find ``K``
node-disjoint closed tours visiting every to-be-charged sensor so that
the longest tour delay is minimised — the 5-approximation of Liang et
al. — but charging remains *one-to-one*: the vehicle stops at every
sensor and charges it individually.

This is the strongest baseline in the paper (it shares Appro's min-max
tour machinery) and the gap between it and ``Appro`` isolates the value
of multi-node charging: K-minMax must visit all ``|V_s|`` sensors,
Appro only ``|S_I|`` sojourn disks.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.baselines.common import one_to_one_schedule
from repro.core.context import PlanningContext
from repro.core.schedule import ChargingSchedule
from repro.energy.charging import ChargerSpec
from repro.network.topology import WRSN


def kminmax_baseline_schedule(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    lifetimes: Optional[Mapping[int, float]] = None,
    tsp_method: str = "christofides",
    context: Optional[PlanningContext] = None,
) -> ChargingSchedule:
    """Schedule the request set with the K-minMax baseline.

    Args:
        network: the WRSN instance.
        request_ids: the to-be-charged sensors ``V_s``.
        num_chargers: ``K``.
        charger: MCV parameters (paper defaults when omitted).
        lifetimes: accepted for the uniform planner call and ignored:
            the min-max tours do not rank by urgency.
        tsp_method: backbone TSP construction (see
            :func:`repro.tours.tsp.build_tsp_order`). Large request
            sets automatically fall back from Christofides to the
            2-approximation for tractability.
        context: the :class:`~repro.core.context.PlanningContext`
            supplying the shared distance cache, memoized charge times
            and memoized min-max tour solutions; built here when
            omitted.

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
    charge_times = context.charge_times_for(requests)

    # Christofides' matching step is O(n^3)-ish; over every sensor
    # (rather than Appro's far smaller sojourn set) it becomes the
    # bottleneck, so large instances use the MST 2-approximation.
    method = tsp_method
    if method == "christofides" and len(requests) > 400:
        method = "double_mst"

    tours, _ = context.minmax_tours(
        requests, num_chargers, charge_times, tsp_method=method
    )
    return one_to_one_schedule(context, requests, spec, num_chargers, tours)
