"""Shared machinery for the one-to-one baselines.

Every baseline produces a :class:`BaselineSchedule`: per MCV, a
time-stamped sequence of :class:`Visit` records (travel to a sensor,
charge it fully, move on) plus the closing leg back to the depot. The
type intentionally mirrors the reporting surface of
:class:`repro.core.schedule.ChargingSchedule` — ``longest_delay()``,
``tour_delays()``, ``sensor_finish_times()`` — so the simulator and the
benchmark harness treat all five algorithms uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.energy.charging import ChargerSpec
from repro.geometry.distcache import DistanceCache
from repro.geometry.point import Point
from repro.network.topology import WRSN

#: Pairwise distance lookup over sensor ids; ``None`` means the depot.
DistanceFn = Callable[[Optional[int], Optional[int]], float]


@dataclass(frozen=True)
class Visit:
    """One one-to-one charging visit.

    Attributes:
        sensor_id: the sensor charged.
        arrival_s: arrival time at the sensor's location.
        finish_s: when the sensor reaches full capacity.
    """

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
        """Total delay of MCV ``k`` including the return to the depot."""
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
        """The objective value ``max_k T'(k)``."""
        return max(self.tour_delays(), default=0.0)

    def sensor_finish_times(self) -> Dict[int, float]:
        """When each visited sensor is fully charged."""
        return {
            v.sensor_id: v.finish_s
            for itinerary in self.itineraries
            for v in itinerary
        }

    def visited_sensors(self) -> List[int]:
        """All sensors visited, across all MCVs."""
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
    """Walk one MCV through ``sequence``, producing timed visits.

    The vehicle starts at the depot at ``start_time_s``, drives to each
    sensor in order and charges it fully before moving on.
    """
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


def default_lifetimes(
    network: WRSN,
    requests: Sequence[int],
    lifetimes: Optional[Mapping[int, float]],
) -> Dict[int, float]:
    """Residual lifetime per requested sensor, in seconds.

    When the caller (typically the simulator) does not supply true
    lifetimes, fall back to residual energy divided by a nominal draw
    proportional to the sensor's own data rate — preserving the
    urgency *ordering* that EDF-style baselines rely on.
    """
    if lifetimes is not None:
        return {sid: float(lifetimes[sid]) for sid in requests}
    out: Dict[int, float] = {}
    for sid in requests:
        sensor = network.sensor(sid)
        nominal_draw_w = max(sensor.data_rate_bps * 55e-9, 1e-12)
        out[sid] = sensor.residual_j / nominal_draw_w
    return out
