"""Charging schedules: K tours with durations and finish times.

A :class:`ChargingSchedule` is the mutable object Algorithm 1 builds:

* ``K`` depot-rooted tours of sojourn stops;
* per stop, the *residual* charging duration ``τ'(v)`` — Eq. (3)/(10):
  the longest full-charge time among the sensors in ``N_c⁺(v)`` not
  already covered by any earlier-scheduled stop (a stop's duration is
  fixed at insertion time, exactly as in the paper);
* per stop, the charging *finish time* ``f(v)`` — Eq. (6)/(11)/(12):
  the running sum of travel legs and charging durations along the
  tour, recomputed downstream of every insertion;
* the coverage relation: which stop charges which sensor.

The schedule also supports per-stop *waiting times*, used by the
optional conflict-resolution pass (:meth:`ChargingSchedule.add_wait`):
an MCV may idle at a stop before switching its charger on, which is the
minimal mechanism that can always restore the no-simultaneous-charging
constraint without restructuring tours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.energy.charging import ChargerSpec
from repro.geometry.distcache import DistanceCache
from repro.geometry.point import Point

#: Pairwise distance lookup over node labels; ``None`` means the depot.
DistanceFn = Callable[[Optional[int], Optional[int]], float]


@dataclass(frozen=True)
class Stop:
    """A snapshot of one sojourn stop for reporting.

    Attributes:
        node: the sojourn location (a sensor id).
        tour: index of the MCV whose tour contains the stop.
        arrival_s: when the MCV arrives at the location.
        start_s: when charging begins (``arrival_s`` plus any wait).
        finish_s: the charging finish time ``f(v)``.
        duration_s: the charging duration ``τ'(v)``.
        charged: sensors this stop is responsible for charging.
    """

    node: int
    tour: int
    arrival_s: float
    start_s: float
    finish_s: float
    duration_s: float
    charged: FrozenSet[int]


class ChargingSchedule:
    """K depot-rooted charging tours under construction.

    Args:
        depot: the depot position.
        positions: sensor id -> position (must cover every sojourn
            location ever added).
        coverage: ``N_c⁺(v)`` per candidate sojourn location.
        charge_times: Eq. (1) full-charge time ``t_u`` per sensor.
        charger: MCV parameters (speed is the only one used here).
        num_tours: ``K``.
        distance: shared label-keyed distance lookup (``None`` label =
            depot); a private :class:`DistanceCache` is created when
            omitted.
    """

    def __init__(
        self,
        depot: Point,
        positions: Mapping[int, Point],
        coverage: Mapping[int, FrozenSet[int]],
        charge_times: Mapping[int, float],
        charger: ChargerSpec,
        num_tours: int,
        pairwise_charge_time: Optional[Callable[[int, int], float]] = None,
        distance: Optional[DistanceFn] = None,
    ):
        if num_tours <= 0:
            raise ValueError(f"num_tours must be positive, got {num_tours}")
        self.depot = depot
        self.positions = positions
        self.distance: DistanceFn = (
            distance
            if distance is not None
            else DistanceCache(positions, depot)
        )
        self.coverage = coverage
        self.charge_times = charge_times
        #: ``(sensor, stop) -> charge seconds``. The default ignores
        #: the stop — the paper's Eq. (1); a distance-aware efficiency
        #: model (repro.energy.efficiency) makes it stop-dependent. It
        #: closes over the mapping, not ``self``: a schedule that
        #: referenced itself would outlive its last use until the
        #: cyclic collector ran.
        self._pair_time: Callable[[int, int], float] = (
            pairwise_charge_time
            if pairwise_charge_time is not None
            else (lambda sensor, stop: charge_times[sensor])
        )
        self.charger = charger
        self.tours: List[List[int]] = [[] for _ in range(num_tours)]
        #: Residual charging duration τ'(v) of each scheduled stop.
        self.duration: Dict[int, float] = {}
        #: Charging finish time f(v) of each scheduled stop.
        self.finish: Dict[int, float] = {}
        #: Arrival time at each scheduled stop.
        self.arrival: Dict[int, float] = {}
        #: Extra waiting before charging begins (conflict resolution).
        self.wait: Dict[int, float] = {}
        #: sensor id -> the stop responsible for charging it.
        self.charged_by: Dict[int, int] = {}
        #: stop -> set of sensors it is responsible for.
        self.charges: Dict[int, FrozenSet[int]] = {}
        #: stop -> tour index, for O(1) lookups.
        self.tour_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_tours(self) -> int:
        return len(self.tours)

    def scheduled_stops(self) -> List[int]:
        """All sojourn locations currently scheduled, in tour order."""
        return [node for tour in self.tours for node in tour]

    def covered_sensors(self) -> Set[int]:
        """All sensors some scheduled stop is responsible for."""
        return set(self.charged_by)

    def is_scheduled(self, node: int) -> bool:
        """Whether ``node`` is a sojourn stop on some tour."""
        return node in self.tour_of

    def speed(self) -> float:
        return self.charger.travel_speed_mps

    def travel_time(self, a: Optional[int], b: Optional[int]) -> float:
        """Travel time between two stops (``None`` means the depot)."""
        return self.distance(a, b) / self.speed()

    # ------------------------------------------------------------------
    # Durations (Eqs. 2, 3, 10)
    # ------------------------------------------------------------------

    def residual_duration(self, node: int) -> float:
        """Eq. (3)/(10): ``τ'(node)`` against the current coverage.

        The longest charge time (at this stop) among the sensors in
        ``N_c⁺(node)`` not yet assigned to any scheduled stop. Zero if
        everything in the disk is already covered.
        """
        residual = [
            self._pair_time(u, node)
            for u in self.coverage[node]
            if u not in self.charged_by and u in self.charge_times
        ]
        return max(residual, default=0.0)

    def upper_duration(self, node: int) -> float:
        """Eq. (2): ``τ(node)`` ignoring what is already covered."""
        return max(
            (
                self._pair_time(u, node)
                for u in self.coverage[node]
                if u in self.charge_times
            ),
            default=0.0,
        )

    def fully_covered(self, node: int) -> bool:
        """Whether every sensor in ``N_c⁺(node)`` already has a
        responsible stop (the skip test of Algorithm 1, line 10)."""
        return all(
            u in self.charged_by
            for u in self.coverage[node]
            if u in self.charge_times
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _claim_coverage(self, node: int) -> FrozenSet[int]:
        newly = frozenset(
            u
            for u in self.coverage[node]
            if u not in self.charged_by and u in self.charge_times
        )
        for u in sorted(newly):
            self.charged_by[u] = node
        self.charges[node] = newly
        return newly

    def append_stop(self, tour_index: int, node: int) -> None:
        """Append ``node`` at the end of tour ``tour_index``.

        Fixes ``τ'(node)`` against the current coverage, claims the
        uncovered sensors in its disk, and extends the finish-time
        recursion. Used to materialise the initial ``V'_H`` tours.
        """
        self._check_new_node(node)
        self.duration[node] = self.residual_duration(node)
        self._claim_coverage(node)
        self.tours[tour_index].append(node)
        self.tour_of[node] = tour_index
        self.wait[node] = 0.0
        self.recompute_finish_times(
            tour_index, start=len(self.tours[tour_index]) - 1
        )

    def insert_stop_after(
        self, tour_index: int, anchor: Optional[int], node: int
    ) -> None:
        """Insert ``node`` into tour ``tour_index`` right after
        ``anchor`` (``None`` = right after the depot).

        This is the insertion primitive of Algorithm 1's extension step
        (cases (i) and (ii)): the duration is Eq. (10)'s residual
        ``τ'``, and finish times downstream of the insertion point are
        recomputed per Eqs. (11)–(12).
        """
        self._check_new_node(node)
        if anchor is not None and self.tour_of.get(anchor) != tour_index:
            raise ValueError(
                f"anchor {anchor} is not on tour {tour_index}"
            )
        self.duration[node] = self.residual_duration(node)
        self._claim_coverage(node)
        tour = self.tours[tour_index]
        idx = 0 if anchor is None else tour.index(anchor) + 1
        tour.insert(idx, node)
        self.tour_of[node] = tour_index
        self.wait[node] = 0.0
        self.recompute_finish_times(tour_index, start=idx)

    def _check_new_node(self, node: int) -> None:
        if node in self.tour_of:
            raise ValueError(f"node {node} is already scheduled")
        if node not in self.coverage:
            raise ValueError(f"node {node} has no coverage set")
        if node not in self.positions:
            raise ValueError(f"node {node} has no position")

    def remove_stop(self, node: int, release_coverage: bool = False) -> None:
        """Remove ``node`` from its tour.

        With ``release_coverage=False`` (the default) the stop keeps its
        fixed duration ``τ'`` and its charging responsibility, so it can
        later be re-attached with :meth:`reinsert_stop` — this is the
        removal half of the repair engine's re-insertion move. With
        ``release_coverage=True`` the stop's sensors lose their
        responsible stop entirely (the repair engine's *deferral*: the
        sensors go back to the uncovered pool and are reported, not
        silently dropped).
        """
        if node not in self.tour_of:
            raise ValueError(f"node {node} is not scheduled")
        tour_index = self.tour_of.pop(node)
        tour = self.tours[tour_index]
        idx = tour.index(node)
        del tour[idx]
        self.arrival.pop(node, None)
        self.finish.pop(node, None)
        self.wait.pop(node, None)
        if release_coverage:
            for sensor in self.charges.pop(node, frozenset()):
                self.charged_by.pop(sensor, None)
            self.duration.pop(node, None)
        self.recompute_finish_times(tour_index, start=idx)

    def reinsert_stop(
        self, tour_index: int, anchor: Optional[int], node: int
    ) -> None:
        """Re-attach a stop removed with :meth:`remove_stop` right
        after ``anchor`` on tour ``tour_index`` (``None`` = after the
        depot).

        Unlike :meth:`insert_stop_after` the duration is *not*
        recomputed: the stop keeps the ``τ'`` fixed at its original
        insertion (its own sensors are still assigned to it, so a
        recomputation against current coverage would wrongly yield 0).
        """
        if node in self.tour_of:
            raise ValueError(f"node {node} is already scheduled")
        if node not in self.duration or node not in self.charges:
            raise ValueError(
                f"node {node} was not removed with retained coverage; "
                f"use insert_stop_after for brand-new stops"
            )
        if anchor is not None and self.tour_of.get(anchor) != tour_index:
            raise ValueError(f"anchor {anchor} is not on tour {tour_index}")
        tour = self.tours[tour_index]
        idx = 0 if anchor is None else tour.index(anchor) + 1
        tour.insert(idx, node)
        self.tour_of[node] = tour_index
        self.wait[node] = 0.0
        self.recompute_finish_times(tour_index, start=idx)

    def copy(self) -> "ChargingSchedule":
        """An independent copy sharing the immutable instance data.

        Tours, timing and coverage-assignment state are deep enough to
        mutate freely (the repair engine and fault replays work on
        copies); positions, coverage sets and charge times are shared
        (they are never mutated by schedule operations).
        """
        dup = ChargingSchedule(
            depot=self.depot,
            positions=self.positions,
            coverage=self.coverage,
            charge_times=self.charge_times,
            charger=self.charger,
            num_tours=self.num_tours,
            pairwise_charge_time=self._pair_time,
            distance=self.distance,
        )
        dup.tours = [list(tour) for tour in self.tours]
        dup.duration = dict(self.duration)
        dup.finish = dict(self.finish)
        dup.arrival = dict(self.arrival)
        dup.wait = dict(self.wait)
        dup.charged_by = dict(self.charged_by)
        dup.charges = dict(self.charges)
        dup.tour_of = dict(self.tour_of)
        return dup

    def add_wait(self, node: int, extra_wait_s: float) -> None:
        """Delay charging at ``node`` by ``extra_wait_s`` more seconds
        and propagate downstream finish times."""
        if extra_wait_s < 0:
            raise ValueError(f"wait must be non-negative: {extra_wait_s}")
        if node not in self.tour_of:
            raise ValueError(f"node {node} is not scheduled")
        self.wait[node] += extra_wait_s
        self.recompute_finish_times(self.tour_of[node])

    # ------------------------------------------------------------------
    # Finish times (Eqs. 6, 11, 12)
    # ------------------------------------------------------------------

    def recompute_finish_times(self, tour_index: int, start: int = 0) -> None:
        """Recompute arrivals and finish times along one tour.

        ``f(v_l) = f(v_{l-1}) + travel(v_{l-1}, v_l) + wait(v_l)
        + τ'(v_l)`` with ``f(depot) = 0``.

        Args:
            tour_index: the tour to recompute.
            start: first position whose timing may have changed. The
                stops before it must hold current finish times; the
                recursion resumes from ``f(tour[start - 1])``, so the
                result is bit-identical to a recompute from the depot.
        """
        tour = self.tours[tour_index]
        clock = 0.0
        prev: Optional[int] = None
        if start > 0:
            prev = tour[start - 1]
            clock = self.finish[prev]
        for node in tour[start:]:
            clock += self.travel_time(prev, node)
            self.arrival[node] = clock
            clock += self.wait[node] + self.duration[node]
            self.finish[node] = clock
            prev = node

    def stop_interval(self, node: int) -> Tuple[float, float]:
        """The active charging interval ``[start, finish]`` of a stop."""
        start = self.arrival[node] + self.wait[node]
        return (start, self.finish[node])

    # ------------------------------------------------------------------
    # Delays (Eqs. 4, 5)
    # ------------------------------------------------------------------

    def tour_delay(self, tour_index: int) -> float:
        """Eq. (4): total delay of one tour including the return leg."""
        tour = self.tours[tour_index]
        if not tour:
            return 0.0
        return self.finish[tour[-1]] + self.travel_time(tour[-1], None)

    def longest_delay(self) -> float:
        """The objective: ``max_k T'(k)``."""
        return max(
            (self.tour_delay(k) for k in range(self.num_tours)), default=0.0
        )

    def tour_delays(self) -> List[float]:
        """Per-tour delays, index-aligned with :attr:`tours`."""
        return [self.tour_delay(k) for k in range(self.num_tours)]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stops(self) -> List[Stop]:
        """Immutable snapshots of every scheduled stop."""
        out: List[Stop] = []
        for k, tour in enumerate(self.tours):
            for node in tour:
                start, finish = self.stop_interval(node)
                out.append(
                    Stop(
                        node=node,
                        tour=k,
                        arrival_s=self.arrival[node],
                        start_s=start,
                        finish_s=finish,
                        duration_s=self.duration[node],
                        charged=self.charges.get(node, frozenset()),
                    )
                )
        return out

    def sensor_finish_times(self) -> Dict[int, float]:
        """When each covered sensor is fully charged.

        A sensor charged at stop ``v`` with full-charge time ``t_u`` is
        done ``t_u`` seconds after charging starts at ``v`` (it need
        not wait for slower disk-mates), but never after ``f(v)``.
        """
        done: Dict[int, float] = {}
        for node, sensors in self.charges.items():
            start, finish = self.stop_interval(node)
            for u in sensors:
                done[u] = min(start + self._pair_time(u, node), finish)
        return done

    def total_travel_time(self) -> float:
        """Sum of travel times across all K tours (diagnostics)."""
        total = 0.0
        for tour in self.tours:
            prev: Optional[int] = None
            for node in tour:
                total += self.travel_time(prev, node)
                prev = node
            if tour:
                total += self.travel_time(tour[-1], None)
        return total

    def total_charging_time(self) -> float:
        """Sum of charging durations across all stops (diagnostics)."""
        return sum(self.duration[n] for n in self.tour_of)
