"""Retired one-to-one schedule type, kept as a test oracle.

The four one-to-one baselines (K-EDF, NETWRAP, AA, K-minMax) used to
return a :class:`BaselineSchedule` of time-stamped :class:`Visit`
records built by :func:`build_itinerary`, and NETWRAP kept its own
per-vehicle clock. They now return a
:class:`~repro.core.schedule.ChargingSchedule` whose stops each cover
only their own sensor. The type, the itinerary walk, the four planners
and the one-to-one arm of ``repro.io.schedule_to_dict`` below are the
versions as they last stood; ``tests/test_baselines_parity.py`` checks
the current planners against them byte for byte.

They exist *only* as references; production code must never import
this module.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.baselines.aa import kmeans_partition
from repro.baselines.common import default_lifetimes
from repro.core.context import PlanningContext
from repro.energy.charging import ChargerSpec
from repro.geometry.distcache import DistanceCache
from repro.geometry.point import Point
from repro.io import SCHEDULE_FORMAT
from repro.network.topology import WRSN
from repro.tours.tsp import build_tsp_order

#: Pairwise distance lookup over sensor ids; ``None`` means the depot.
DistanceFn = Callable[[Optional[int], Optional[int]], float]


@dataclass(frozen=True)
class Visit:
    """One one-to-one charging visit."""

    sensor_id: int
    arrival_s: float
    finish_s: float

    @property
    def duration_s(self) -> float:
        return self.finish_s - self.arrival_s


class BaselineSchedule:
    """Result of a one-to-one baseline: K time-stamped itineraries."""

    def __init__(
        self,
        depot: Point,
        positions: Mapping[int, Point],
        charger: ChargerSpec,
        itineraries: Sequence[Sequence[Visit]],
        distance: Optional[DistanceFn] = None,
    ):
        self.depot = depot
        self.positions = positions
        self.charger = charger
        self.distance: DistanceFn = (
            distance
            if distance is not None
            else DistanceCache(positions, depot)
        )
        self.itineraries: List[List[Visit]] = [list(it) for it in itineraries]

    @property
    def num_tours(self) -> int:
        return len(self.itineraries)

    def tour_delay(self, k: int) -> float:
        itinerary = self.itineraries[k]
        if not itinerary:
            return 0.0
        last = itinerary[-1]
        back = (
            self.distance(last.sensor_id, None)
            / self.charger.travel_speed_mps
        )
        return last.finish_s + back

    def tour_delays(self) -> List[float]:
        return [self.tour_delay(k) for k in range(self.num_tours)]

    def longest_delay(self) -> float:
        return max(self.tour_delays(), default=0.0)

    def sensor_finish_times(self) -> Dict[int, float]:
        return {
            v.sensor_id: v.finish_s
            for itinerary in self.itineraries
            for v in itinerary
        }

    def visited_sensors(self) -> List[int]:
        return [
            v.sensor_id for itinerary in self.itineraries for v in itinerary
        ]


def build_itinerary(
    sequence: Sequence[int],
    positions: Mapping[int, Point],
    depot: Point,
    charger: ChargerSpec,
    charge_times: Mapping[int, float],
    start_time_s: float = 0.0,
    dist: Optional[DistanceFn] = None,
) -> List[Visit]:
    """Walk one MCV through ``sequence``, producing timed visits."""
    if dist is None:
        dist = DistanceCache(positions, depot)
    visits: List[Visit] = []
    clock = start_time_s
    here: Optional[int] = None
    for sid in sequence:
        clock += dist(here, sid) / charger.travel_speed_mps
        arrival = clock
        clock += charge_times[sid]
        visits.append(Visit(sensor_id=sid, arrival_s=arrival, finish_s=clock))
        here = sid
    return visits


def _setup(network, request_ids, charger):
    spec = charger if charger is not None else ChargerSpec()
    requests = sorted(set(request_ids))
    context = PlanningContext(network, requests, spec)
    return spec, requests, context, context.charge_times_for(requests)


def legacy_kedf(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    lifetimes: Optional[Mapping[int, float]] = None,
) -> BaselineSchedule:
    spec, requests, context, charge_times = _setup(
        network, request_ids, charger
    )
    positions = network.positions()
    depot = network.depot.position
    dist = context.distance
    life = default_lifetimes(network, requests, lifetimes)
    ordered = sorted(requests, key=lambda sid: (life[sid], sid))
    sequences: List[List[int]] = [[] for _ in range(num_chargers)]
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
    itineraries = [
        build_itinerary(seq, positions, depot, spec, charge_times, dist=dist)
        for seq in sequences
    ]
    return BaselineSchedule(depot, positions, spec, itineraries, distance=dist)


def legacy_netwrap(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    lifetimes: Optional[Mapping[int, float]] = None,
    travel_weight: float = 0.5,
) -> BaselineSchedule:
    spec, requests, context, charge_times = _setup(
        network, request_ids, charger
    )
    positions = network.positions()
    depot = network.depot.position
    dist = context.distance
    life = default_lifetimes(network, requests, lifetimes)
    max_life = max(life.values(), default=1.0) or 1.0
    diag = (
        math.hypot(network.field.width, network.field.height)
        / spec.travel_speed_mps
    )
    unclaimed: Set[int] = set(requests)
    itineraries: List[List[Visit]] = [[] for _ in range(num_chargers)]
    free_at = [(0.0, k) for k in range(num_chargers)]
    heapq.heapify(free_at)
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


def legacy_aa(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    lifetimes: Optional[Mapping[int, float]] = None,
    seed: int = 0,
) -> BaselineSchedule:
    spec, requests, context, charge_times = _setup(
        network, request_ids, charger
    )
    positions = network.positions()
    depot = network.depot.position
    dist = context.distance
    itineraries: List = [[] for _ in range(num_chargers)]
    if requests:
        coords = np.array(
            [[positions[sid].x, positions[sid].y] for sid in requests]
        )
        labels = kmeans_partition(coords, num_chargers, seed=seed)
        for k in range(num_chargers):
            group = [sid for sid, lab in zip(requests, labels) if lab == k]
            if not group:
                continue
            order = build_tsp_order(
                group, positions, depot, method="nearest_neighbor", dist=dist
            )
            itineraries[k] = build_itinerary(
                order, positions, depot, spec, charge_times, dist=dist
            )
    return BaselineSchedule(depot, positions, spec, itineraries, distance=dist)


def legacy_kminmax(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    lifetimes: Optional[Mapping[int, float]] = None,
    tsp_method: str = "christofides",
) -> BaselineSchedule:
    spec, requests, context, charge_times = _setup(
        network, request_ids, charger
    )
    positions = network.positions()
    depot = network.depot.position
    dist = context.distance
    method = tsp_method
    if method == "christofides" and len(requests) > 400:
        method = "double_mst"
    tours, _ = context.minmax_tours(
        requests, num_chargers, charge_times, tsp_method=method
    )
    itineraries = [
        build_itinerary(tour, positions, depot, spec, charge_times, dist=dist)
        for tour in tours
    ]
    return BaselineSchedule(depot, positions, spec, itineraries, distance=dist)


#: Registry name -> the retired planner it was.
LEGACY_PLANNERS = {
    "K-EDF": legacy_kedf,
    "NETWRAP": legacy_netwrap,
    "AA": legacy_aa,
    "K-minMax": legacy_kminmax,
}


def legacy_schedule_to_dict(
    schedule: BaselineSchedule, algorithm: str = ""
) -> Dict:
    """The one-to-one arm of ``repro.io.schedule_to_dict``."""
    vehicles = []
    for k, itinerary in enumerate(schedule.itineraries):
        stops = [
            {
                "location": v.sensor_id,
                "arrival_s": v.arrival_s,
                "start_s": v.arrival_s,
                "wait_s": 0.0,
                "finish_s": v.finish_s,
                "charges": [v.sensor_id],
            }
            for v in itinerary
        ]
        vehicles.append(
            {"vehicle": k, "delay_s": schedule.tour_delay(k), "stops": stops}
        )
    return {
        "format": SCHEDULE_FORMAT,
        "algorithm": algorithm,
        "kind": "one-to-one",
        "depot": list(schedule.depot.as_tuple()),
        "longest_delay_s": schedule.longest_delay(),
        "vehicles": vehicles,
    }
