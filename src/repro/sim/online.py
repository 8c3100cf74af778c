"""Event-driven online per-vehicle dispatching (beyond-the-paper
extension).

The paper's model is *batch* scheduling: all K MCVs leave the depot
together and the next round starts only when the slowest returns. A
natural extension — and the obvious practical improvement the paper's
conclusion points toward — is *online dispatching*: whenever a vehicle
is idle at the depot and requests are pending, it immediately departs
on a fresh tour over a share of the pending requests, while the other
vehicles keep working.

Arrivals are first-class events. Every threshold crossing is scheduled
on a :class:`~repro.sim.events.EventQueue` at its true (closed-form)
time; a request that arrives while every vehicle is mid-tour is
carried in the pending pool *with its original arrival timestamp*, so
per-request delay accounting measures from the moment the sensor asked
— not from the round boundary that happened to pick it up.

The no-simultaneous-charging constraint spans tours that started at
different times. Each dispatch assembles a *frame*: a synthetic
:class:`~repro.core.schedule.ChargingSchedule` holding every
unfinished in-flight stop plus the new tour on one absolute realized
timeline (a table-backed distance function encodes the realized travel
legs and depot offsets), with each stop's full charging disk as its
coverage set. The frame is then handed to the one wait-insertion
loop, :func:`~repro.core.conflicts.resolve_conflicts`, with the current
time as the frozen boundary: stops already charging are never moved,
while any not-yet-started stop — on the new tour *or* an in-flight one
— may absorb a bounded wait. Mid-round breakdown repair and plan-time
resolution call the same loop, so online feasibility is restored by
exactly one engine.

A :class:`~repro.sim.deadline.DeadlinePolicy` can sit on top: each
request gets ``arrival + deadline_s`` as its absolute deadline, a
shared :class:`~repro.sim.deadline.ServiceTimeEstimator` observes
realized dispatch-to-finish service times, and requests that become
provably unmeetable are counted as misses once and deferred behind
still-meetable work (they are still charged — the network must live —
but they no longer crowd out requests that can make their deadline).
:attr:`~repro.sim.metrics.SimMetrics.deadline_miss_ratio` reports the
outcome.

Batching rule: an idle vehicle takes up to ``ceil(pending / K)``
requests. Without a deadline policy they are picked by a
nearest-neighbour chain from the depot, so concurrently-dispatched
vehicles naturally spread over the field; with one (and the default
``edf_batch=True``), the batch is instead filled
earliest-deadline-first — the chain minimizes travel, but under
overload it is the requests closest to missing that must ride the
next departure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.appro import appro_schedule
from repro.core.conflicts import interval_conflicts, resolve_conflicts
from repro.core.schedule import ChargingSchedule
from repro.energy.battery import DEFAULT_REQUEST_THRESHOLD
from repro.energy.charging import ChargerSpec
from repro.energy.consumption import RadioModel
from repro.geometry.disk_index import DiskIndex
from repro.network.topology import WRSN
from repro.sim.deadline import DeadlinePolicy, ServiceTimeEstimator
from repro.sim.events import EventQueue
from repro.sim.faults.injector import draw_round_faults, surge_victims
from repro.sim.faults.specs import FaultPlan, RoundFaults
from repro.sim.metrics import SimMetrics
from repro.sim.simulator import (
    BatteryTrajectories,
    MonitoringSimulation,
    _TIME_EPS_S,
)

#: Event kind for threshold crossings on the arrival queue.
_ARRIVAL = "arrival"


@dataclass
class _StopRecord:
    """One stop of a dispatched tour, on the absolute realized
    timeline. ``start_s``/``finish_s`` are updated in place when a
    later dispatch's frame resolution delays this stop."""

    node: int
    start_s: float
    finish_s: float
    #: The stop's full charging disk (for cross-tour conflict groups).
    covered: FrozenSet[int]
    #: Sensors this stop is responsible for charging.
    claimed: FrozenSet[int]
    #: Realized per-sensor charge seconds (claimed sensors only).
    charge_s: Dict[int, float] = field(default_factory=dict)


@dataclass
class _Dispatch:
    """One vehicle departure: its realized tour and completion time."""

    vehicle: int
    depart_s: float
    return_s: float
    #: Realized depot-return travel leg after the last stop.
    return_leg_s: float
    #: Earliest the vehicle may be dispatched again (anti-livelock).
    free_floor_s: float
    batch: List[int]
    #: Original arrival timestamp of each batched request.
    arrivals: Dict[int, float] = field(default_factory=dict)
    records: List[_StopRecord] = field(default_factory=list)
    #: Sensors whose stop was cancelled by a mid-tour breakdown; they
    #: re-enter the pending pool (the online form of schedule repair).
    cancelled: List[int] = field(default_factory=list)

    def refresh_return(self) -> None:
        """Re-derive the return time after frame resolution moved
        stops (breakdown returns are pinned and not re-derived)."""
        if self.records:
            self.return_s = self.records[-1].finish_s + self.return_leg_s

    def sensor_finish_s(self) -> Dict[int, float]:
        """When each (surviving) claimed sensor is fully charged."""
        finishes: Dict[int, float] = {}
        for rec in self.records:
            for sid, t_u in rec.charge_s.items():
                finishes[sid] = min(rec.start_s + t_u, rec.finish_s)
        return finishes


class OnlineMonitoringSimulation(MonitoringSimulation):
    """Monitoring simulation with event-driven online dispatching.

    Accepts the same arguments as
    :class:`~repro.sim.simulator.MonitoringSimulation` except that the
    scheduling algorithm is fixed: each dispatch runs single-vehicle
    ``Appro`` over its batch. Metrics are reported on the same
    :class:`~repro.sim.metrics.SimMetrics` surface —
    ``round_longest_delays_s`` holds per-dispatch tour durations and
    ``request_delays_s`` holds realized per-request delays measured
    from true arrival times.

    Args:
        deadline_s: optional per-request latency budget; enables the
            deadline policy (defer provably-unmeetable requests, report
            the miss ratio).
        estimator: optional shared service-time tracker for the
            deadline policy (e.g. pre-warmed from a previous run); a
            fresh one is built when omitted.
        edf_batch: when the deadline policy is active, fill each batch
            earliest-deadline-first instead of by the spatial
            nearest-neighbour chain, so the requests closest to
            missing ride the next departure. ``False`` restores the
            purely spatial batching (the pre-EDF behaviour); ignored
            without ``deadline_s``.
        audit: retain every settled stop's realized interval and, at
            the end of the run, check them with the conflict engine for
            simultaneous charging (overlapping intervals whose full
            disks share a sensor). The frame resolver guarantees an empty
            :attr:`audit_overlap_violations`; the audit proves it on
            the realized timeline rather than trusting it.
    """

    def __init__(
        self,
        network: WRSN,
        num_chargers: int,
        charger: Optional[ChargerSpec] = None,
        threshold: float = DEFAULT_REQUEST_THRESHOLD,
        horizon_s: float = 365.0 * 86400.0,
        radio: Optional[RadioModel] = None,
        max_dispatches: int = 1_000_000,
        fault_plan: Optional[FaultPlan] = None,
        deadline_s: Optional[float] = None,
        estimator: Optional[ServiceTimeEstimator] = None,
        edf_batch: bool = True,
        audit: bool = False,
    ):
        super().__init__(
            network=network,
            algorithm="Appro",  # per-dispatch solver; fixed
            num_chargers=num_chargers,
            charger=charger,
            threshold=threshold,
            horizon_s=horizon_s,
            radio=radio,
            fault_plan=fault_plan,
        )
        self.max_dispatches = max_dispatches
        self.estimator = (
            estimator if estimator is not None else ServiceTimeEstimator()
        )
        self.deadline: Optional[DeadlinePolicy] = (
            DeadlinePolicy(deadline_s, self.estimator)
            if deadline_s is not None
            else None
        )
        self.edf_batch = edf_batch
        self._disks: Optional[Dict[int, FrozenSet[int]]] = None
        self.audit = audit
        #: Conflicting settled stop pairs found by the end-of-run
        #: audit (empty unless ``audit=True`` found a bug).
        self.audit_overlap_violations: List[Tuple[int, int]] = []
        self._audit_stops: List[
            Tuple[float, float, int, FrozenSet[int]]
        ] = []

    # ------------------------------------------------------------------

    def _disk(self, node: int) -> FrozenSet[int]:
        """The full charging disk of a sojourn location: every network
        sensor within the charging radius, plus the location itself.
        Cross-dispatch conflict candidates come from disk intersection
        over the whole population (the paper's Definition 1 reading),
        not just over each dispatch's claimed sensors. Every sensor's
        disk comes from one bulk query, on first use."""
        if self._disks is None:
            positions = self.network.positions()
            rows = DiskIndex(positions).within_bulk(
                list(positions.values()), self.charger.charge_radius_m
            )
            self._disks = {
                sid: frozenset(row) | {sid}
                for sid, row in zip(positions, rows)
            }
        return self._disks[node]

    def _pick_batch(
        self,
        pending: Dict[int, float],
        preferred: List[int],
    ) -> List[int]:
        """Up to ceil(pending / K) requests for the next departure.

        ``pending`` maps request id -> original arrival time (requests
        that arrived mid-round are carried here, timestamps intact,
        until a vehicle frees up). ``preferred`` is the subset the
        batch draws from — the deadline policy passes still-meetable
        requests first, so provably-late work never crowds them out.

        With an active deadline policy and ``edf_batch``, the batch is
        the ``quota`` earliest-deadline requests (ties broken by
        arrival, then id) — triage alone only decides *who may ride*,
        while this decides *who rides first*, which is where overload
        misses are actually won or lost. Otherwise the batch is a
        nearest-neighbour chain from the depot, so
        concurrently-dispatched vehicles spread over the field.
        """
        if not preferred:
            return []
        quota = max(1, math.ceil(len(pending) / self.num_chargers))
        if self.deadline is not None and self.edf_batch:
            policy = self.deadline
            horizon = float("inf")

            def urgency(sid: int) -> Tuple[float, float, int]:
                due = policy.deadline_of(sid)
                return (
                    due if due is not None else horizon,
                    pending.get(sid, horizon),
                    sid,
                )

            return sorted(preferred, key=urgency)[:quota]
        batch: List[int] = []
        here = self.network.depot.position
        remaining = set(preferred)
        while remaining and len(batch) < quota:
            nxt = min(
                remaining,
                key=lambda sid: (
                    here.distance_to(self.network.position_of(sid)),
                    sid,
                ),
            )
            batch.append(nxt)
            remaining.discard(nxt)
            here = self.network.position_of(nxt)
        return batch

    # ------------------------------------------------------------------
    # Frame resolution: frozen-past bounded edits across tours
    # ------------------------------------------------------------------

    def _resolve_frame(
        self,
        now_s: float,
        live: List[_Dispatch],
        new_records: List[_StopRecord],
    ) -> int:
        """Restore the cross-tour constraint over every unfinished
        in-flight stop plus the new tour, editing only the future.

        Builds a synthetic :class:`ChargingSchedule` whose travel legs
        are a lookup table of realized gaps (so absolute times and
        fault-stretched legs survive the schedule's own timing
        recursion) and runs :func:`resolve_conflicts` with ``now_s`` as
        the frozen boundary. Already-charging stops never move; any
        later stop on any tour may absorb a wait. Mutates the records
        in place and returns the number of waits inserted.
        """
        frame_tours: List[List[_StopRecord]] = [
            [rec for rec in d.records if rec.finish_s > now_s]
            for d in live
        ]
        frame_tours.append(new_records)
        frame_tours = [recs for recs in frame_tours if recs]
        if len(frame_tours) <= 1:
            return 0

        legs: Dict[Tuple[Optional[int], int], float] = {}
        coverage: Dict[int, FrozenSet[int]] = {}
        speed = self.charger.travel_speed_mps
        for recs in frame_tours:
            prev_label: Optional[int] = None
            prev_finish = 0.0
            for rec in recs:
                if rec.node in coverage:
                    raise RuntimeError(
                        f"stop {rec.node} appears on two in-flight "
                        f"tours; dispatch bookkeeping is inconsistent"
                    )
                legs[(prev_label, rec.node)] = (
                    rec.start_s - prev_finish
                ) * speed
                coverage[rec.node] = rec.covered
                prev_label = rec.node
                prev_finish = rec.finish_s

        frame = ChargingSchedule(
            depot=self.network.depot.position,
            positions=self.network.positions(),
            coverage=coverage,
            charge_times={},
            charger=self.charger,
            num_tours=len(frame_tours),
            distance=lambda a, b: legs.get((a, b), 0.0),
        )
        index: Dict[int, _StopRecord] = {}
        for k, recs in enumerate(frame_tours):
            for rec in recs:
                frame.tours[k].append(rec.node)
                frame.tour_of[rec.node] = k
                frame.duration[rec.node] = rec.finish_s - rec.start_s
                frame.wait[rec.node] = 0.0
                index[rec.node] = rec
            frame.recompute_finish_times(k)

        waits = resolve_conflicts(frame, frozen_before_s=now_s)
        if waits:
            for node, rec in index.items():
                rec.start_s, rec.finish_s = frame.stop_interval(node)
        return waits

    def _build_dispatch(
        self,
        vehicle: int,
        depart_s: float,
        batch: List[int],
        arrivals: Dict[int, float],
        live: List[_Dispatch],
        faults: Optional[RoundFaults] = None,
    ) -> _Dispatch:
        """Single-vehicle Appro over ``batch`` on the absolute realized
        timeline, then frame resolution against the in-flight tours.

        When a fault draw is given, the tour is replayed with its
        travel/charge factors (and the rank-selected interruption
        pause) *before* conflict resolution, so the intervals the
        frozen-past edits see are the ones that will be executed —
        feasibility under faults stays by-construction. A breakdown of
        this vehicle truncates the tour at the failure moment (after
        resolution, so the cut uses final times); the unexecuted
        stops' sensors are returned as ``cancelled`` and re-enter the
        pending pool with their original arrival timestamps.
        """
        schedule = appro_schedule(
            self.network, batch, num_chargers=1, charger=self.charger
        )
        travel_factor = faults.travel_factor if faults else 1.0
        charge_factor = faults.charge_factor if faults else 1.0
        tour = schedule.tours[0]
        paused_index: Optional[int] = None
        if faults is not None and faults.interrupted_rank is not None and tour:
            paused_index = int(faults.interrupted_rank * len(tour))
        records: List[_StopRecord] = []
        clock = depart_s
        prev: Optional[int] = None
        for index, node in enumerate(tour):
            clock += schedule.travel_time(prev, node) * travel_factor
            start = clock
            if index == 0:
                # Keep the first stop strictly past the frozen
                # boundary (a zero travel leg would freeze it).
                start = max(start, depart_s + _TIME_EPS_S)
            duration = schedule.duration[node] * charge_factor
            if index == paused_index:
                duration += faults.interruption_pause_s
            claimed = schedule.charges.get(node, frozenset())
            records.append(
                _StopRecord(
                    node=node,
                    start_s=start,
                    finish_s=start + duration,
                    covered=self._disk(node),
                    claimed=claimed,
                    charge_s={
                        sid: schedule.charge_times.get(sid, 0.0)
                        * charge_factor
                        for sid in claimed
                    },
                )
            )
            clock = records[-1].finish_s
            prev = node
        return_leg = (
            schedule.travel_time(tour[-1], None) * travel_factor
            if tour
            else 0.0
        )

        self._resolve_frame(depart_s, live, records)
        for d in live:
            d.refresh_return()

        cancelled: List[int] = []
        if records:
            return_s = records[-1].finish_s + return_leg
        else:
            return_s = depart_s
        if (
            faults is not None
            and faults.breakdown is not None
            and faults.breakdown.vehicle == vehicle
            and records
        ):
            failure_abs = depart_s + faults.breakdown.at_fraction * (
                return_s - depart_s
            )
            kept: List[_StopRecord] = []
            for rec in records:
                if rec.finish_s <= failure_abs:
                    kept.append(rec)
                    continue
                cancelled.extend(rec.claimed)
            records = kept
            # The vehicle is recovered at the depot; the communication
            # delay postpones when it can be dispatched again.
            return_s = failure_abs + faults.comm_delay_s
        return _Dispatch(
            vehicle=vehicle,
            depart_s=depart_s,
            return_s=return_s,
            return_leg_s=return_leg,
            free_floor_s=depart_s + 1.0,
            batch=list(batch),
            arrivals=dict(arrivals),
            records=records,
            cancelled=sorted(cancelled),
        )

    # ------------------------------------------------------------------
    # Settlement and arrivals
    # ------------------------------------------------------------------

    def _schedule_arrival(
        self,
        queue: EventQueue,
        generation: Dict[int, int],
        sid: int,
        states: BatteryTrajectories,
    ) -> None:
        """Schedule the sensor's next threshold crossing, invalidating
        any earlier pending event for it."""
        crossing = states.crossing_time(
            sid, self.threshold * states.capacity_j(sid)
        )
        generation[sid] = generation.get(sid, 0) + 1
        if math.isfinite(crossing):
            queue.schedule(
                max(crossing, 0.0) + _TIME_EPS_S,
                _ARRIVAL,
                (sid, generation[sid]),
            )

    def _register_arrival(
        self,
        sid: int,
        arrival_s: float,
        pending: Dict[int, float],
        metrics: SimMetrics,
    ) -> None:
        pending[sid] = arrival_s
        if self.deadline is not None:
            self.deadline.register(sid, arrival_s)
            metrics.deadline_total += 1

    def _settle(
        self,
        dispatch: _Dispatch,
        states: BatteryTrajectories,
        metrics: SimMetrics,
        assigned: set,
        queue: EventQueue,
        generation: Dict[int, int],
    ) -> None:
        """Commit a returned dispatch: recharge its sensors at their
        final (post-all-resolutions) finish times, account dead time,
        feed the service-time estimator and the deadline ledger, and
        schedule each sensor's next crossing event."""
        finishes = dispatch.sensor_finish_s()
        cancelled = set(dispatch.cancelled)
        if self.audit:
            for rec in dispatch.records:
                self._audit_stops.append(
                    (rec.start_s, rec.finish_s, rec.node, rec.covered)
                )
        for sid in dispatch.batch:
            if sid in cancelled:
                continue  # re-queued at dispatch time
            assigned.discard(sid)
            if sid not in states:
                continue  # hardware-failed since dispatch
            charge_at = finishes.get(sid, dispatch.return_s)
            death = states.death_time(sid)
            if death < charge_at:
                start = min(death, self.horizon_s)
                end = min(charge_at, self.horizon_s)
                if end > start:
                    metrics.dead_time_s[sid] += end - start
            states.recharge_full_at(sid, charge_at)
            arrival = dispatch.arrivals.get(sid, dispatch.depart_s)
            metrics.request_delays_s.append(charge_at - arrival)
            self.estimator.observe(charge_at - dispatch.depart_s)
            if self.deadline is not None:
                missed = self.deadline.settle(sid, charge_at)
                if missed:
                    metrics.deadline_misses += 1
            self._schedule_arrival(queue, generation, sid, states)

    # ------------------------------------------------------------------

    def run(self) -> SimMetrics:
        """Execute the event-driven online monitoring loop."""
        states = self._trajectories()
        metrics = SimMetrics(
            horizon_s=self.horizon_s,
            num_sensors=len(self.network),
            dead_time_s={sid: 0.0 for sid in states.alive_ids()},
        )

        queue = EventQueue()
        #: sid -> latest valid arrival-event generation.
        generation: Dict[int, int] = {}
        #: outstanding requests: sid -> true arrival time.
        pending: Dict[int, float] = {}
        initially_below = set(states.below(0.0, self.threshold))
        for sid in states.alive_ids():
            if sid in initially_below:
                self._register_arrival(sid, 0.0, pending, metrics)
            else:
                self._schedule_arrival(queue, generation, sid, states)

        vehicle_free_at = [0.0] * self.num_chargers
        live: List[_Dispatch] = []
        #: sensors assigned to an in-flight tour (not yet settled).
        assigned: set = set()
        dispatches = 0

        while True:
            vehicle = min(
                range(self.num_chargers), key=lambda k: vehicle_free_at[k]
            )
            t = vehicle_free_at[vehicle]
            if t >= self.horizon_s:
                break

            # Settle returned dispatches (recharges + next crossings),
            # then admit every arrival event up to now.
            returned = sorted(
                (d for d in live if d.return_s <= t),
                key=lambda d: (d.return_s, d.vehicle),
            )
            for d in returned:
                self._settle(d, states, metrics, assigned, queue, generation)
                live.remove(d)
            for event in queue.pop_until(t):
                sid, gen = event.payload
                if sid not in states or generation.get(sid) != gen:
                    continue
                if sid in pending or sid in assigned:
                    continue
                self._register_arrival(sid, event.time_s, pending, metrics)

            if not pending:
                # Idle until something can change the pending pool: the
                # next arrival event, or an in-flight return (whose
                # settlement schedules new crossing events).
                horizon_candidates: List[float] = []
                head = queue.peek()
                if head is not None:
                    horizon_candidates.append(head.time_s)
                horizon_candidates.extend(d.return_s for d in live)
                if not horizon_candidates:
                    break
                vehicle_free_at[vehicle] = (
                    max(t, min(horizon_candidates)) + _TIME_EPS_S
                )
                continue

            dispatches += 1
            if dispatches > self.max_dispatches:
                raise RuntimeError(
                    f"exceeded max_dispatches={self.max_dispatches}"
                )

            faults: Optional[RoundFaults] = None
            if self.fault_plan is not None:
                faults = draw_round_faults(
                    self.fault_plan,
                    dispatches - 1,
                    self.num_chargers,
                    sensor_ids=states.alive_ids(),
                )
                for sid in sorted(faults.failed_sensors):
                    if sid in states:
                        states.fail(sid)
                        assigned.discard(sid)
                        pending.pop(sid, None)
                        if self.deadline is not None:
                            self.deadline.forget(sid)
                        metrics.sensors_failed.append(sid)
                # Request surge: healthy, unassigned sensors drain to
                # just below the threshold and join the pending pool.
                exempt = set(pending) | assigned
                surged = surge_victims(
                    faults,
                    [sid for sid in states.alive_ids() if sid not in exempt],
                )
                for sid in surged:
                    states.recharge_to(
                        sid, 0.99 * self.threshold * states.capacity_j(sid), t
                    )
                    # Invalidate the stale crossing event of the old
                    # trajectory; the surge is the arrival.
                    generation[sid] = generation.get(sid, 0) + 1
                    self._register_arrival(sid, t, pending, metrics)
                if surged:
                    metrics.round_surged.append(len(surged))
                if not pending:
                    metrics.fault_rounds += 1
                    vehicle_free_at[vehicle] = t + 1.0
                    continue

            # Deadline triage: requests that even the fastest-ever
            # service could no longer land in time are counted as
            # misses once and deferred behind still-meetable work.
            preferred = sorted(pending)
            if self.deadline is not None:
                for sid in preferred:
                    if not self.deadline.is_dropped(
                        sid
                    ) and self.deadline.unmeetable(sid, t):
                        if self.deadline.drop(sid):
                            metrics.deadline_misses += 1
                            metrics.deadline_dropped += 1
                meetable = [
                    sid
                    for sid in preferred
                    if not self.deadline.is_dropped(sid)
                ]
                preferred = meetable if meetable else preferred

            batch = self._pick_batch(pending, preferred)
            arrivals = {sid: pending.pop(sid) for sid in batch}
            assigned.update(batch)
            residuals = {sid: states.level_at(sid, t) for sid in batch}
            self.network.set_residuals(residuals)
            dispatch = self._build_dispatch(
                vehicle, t, batch, arrivals, live, faults=faults
            )

            metrics.round_longest_delays_s.append(
                dispatch.return_s - dispatch.depart_s
            )
            metrics.round_request_counts.append(len(batch))
            if faults is not None:
                # A cancelled sensor re-enters the pending pool, its
                # arrival timestamp intact — re-queueing *is* the
                # online repair.
                metrics.round_repairs.append(len(dispatch.cancelled))
                metrics.round_deferred.append(0)
                if faults.any:
                    metrics.fault_rounds += 1
            for sid in dispatch.cancelled:
                assigned.discard(sid)
                if sid in states:
                    pending[sid] = dispatch.arrivals[sid]

            live.append(dispatch)
            for d in live:
                vehicle_free_at[d.vehicle] = max(
                    d.return_s, d.free_floor_s
                )

        # Horizon reached (or no further events): settle what is still
        # in flight — recharges land at their final times, dead-time
        # contributions are clipped to the horizon inside _settle.
        for d in sorted(live, key=lambda d: (d.return_s, d.vehicle)):
            self._settle(d, states, metrics, assigned, queue, generation)

        for sid in states.alive_ids():
            death = states.death_time(sid)
            if death < self.horizon_s:
                metrics.dead_time_s[sid] += self.horizon_s - death
        if self.audit:
            self._audit_sweep()
        return metrics

    def _audit_sweep(self) -> None:
        """Check every settled stop's realized interval for
        simultaneous charging with the conflict engine: two stops whose
        full disks share a sensor must not overlap by more than
        ``OVERLAP_EPS``. Records are keyed by index (node ids repeat
        across dispatches), each on its own tour, so every record is
        checked against every other."""
        stops = self._audit_stops
        records = [
            (i, i, start, finish)
            for i, (start, finish, _, _) in enumerate(stops)
        ]
        pairs = interval_conflicts(
            records, {i: stop[3] for i, stop in enumerate(stops)}
        )
        self.audit_overlap_violations = [
            (stops[i][2], stops[j][2]) for i, j, _ in pairs
        ]
