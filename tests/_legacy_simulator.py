"""Retired simulator paths, kept as test oracles.

These are the pre-array implementations verbatim: the per-sensor
``_SensorState`` battery trajectory and the offline and online
monitoring loops that scanned it sensor by sensor every round, and the
routing tree built by copying the data graph and running networkx's
Dijkstra on the copy. ``tests/test_sim_trajectory_parity.py`` pins the
array-backed :class:`~repro.sim.simulator.BatteryTrajectories` loops
and the copy-free :func:`~repro.network.routing.build_routing_tree`
against them — exactly equal metrics and routing trees.

They exist *only* as references; production code must never import
this module.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import networkx as nx

from repro.energy.consumption import sensor_power_draw
from repro.network.routing import BS_NODE, RoutingTree, relay_loads_bps
from repro.network.topology import WRSN
from repro.sim.events import EventQueue
from repro.sim.faults.executor import execute_with_faults
from repro.sim.faults.injector import draw_round_faults, surge_victims
from repro.sim.faults.specs import RoundFaults
from repro.sim.metrics import SimMetrics
from repro.sim.online import _ARRIVAL, OnlineMonitoringSimulation, _Dispatch
from repro.sim.simulator import MonitoringSimulation, _TIME_EPS_S


def legacy_build_routing_tree(network: WRSN) -> RoutingTree:
    """The retired copy-based ``build_routing_tree``: Dijkstra with
    networkx over a copy of the data graph plus the base station.

    The base station joins the data graph with edges to all sensors
    within the network's communication range of its position; Dijkstra
    from the base station then yields each sensor's parent. Unreachable
    sensors get a direct link to the base station.
    """
    graph = network.comm_graph().copy()
    graph.add_node(BS_NODE)
    bs_pos = network.base_station.position
    for sensor in network.sensors():
        dist = bs_pos.distance_to(sensor.position)
        if dist <= network.comm_range_m:
            graph.add_edge(BS_NODE, sensor.id, weight=dist)

    lengths, paths = nx.single_source_dijkstra(graph, BS_NODE, weight="weight")

    parent: Dict[int, object] = {}
    next_hop: Dict[int, float] = {}
    depth: Dict[int, int] = {}
    for sensor in network.sensors():
        sid = sensor.id
        if sid in paths and len(paths[sid]) >= 2:
            # paths[sid] runs BS -> ... -> sid; the parent is the
            # second-to-last element.
            par = paths[sid][-2]
            parent[sid] = par
            if par == BS_NODE:
                next_hop[sid] = bs_pos.distance_to(sensor.position)
            else:
                next_hop[sid] = sensor.position.distance_to(
                    network.position_of(par)
                )
            depth[sid] = len(paths[sid]) - 1
        else:
            # Disconnected from the sink: direct uplink fallback.
            parent[sid] = BS_NODE
            next_hop[sid] = bs_pos.distance_to(sensor.position)
            depth[sid] = 1
    return RoutingTree(parent=parent, next_hop_distance_m=next_hop, depth=depth)


class _SensorState:
    """Piecewise-linear battery trajectory of one sensor."""

    __slots__ = ("capacity_j", "level_j", "t_ref", "draw_w")

    def __init__(self, capacity_j: float, level_j: float, draw_w: float):
        self.capacity_j = capacity_j
        self.level_j = level_j
        self.t_ref = 0.0
        self.draw_w = draw_w

    def level_at(self, t: float) -> float:
        """Battery level at absolute time ``t`` (>= ``t_ref``)."""
        return max(0.0, self.level_j - self.draw_w * (t - self.t_ref))

    def death_time(self) -> float:
        """Absolute time the battery empties (``inf`` for zero draw)."""
        if self.draw_w <= 0.0:
            return math.inf
        return self.t_ref + self.level_j / self.draw_w

    def crossing_time(self, threshold_j: float) -> float:
        """Absolute time the level reaches ``threshold_j`` from above
        (``-inf`` if already below, ``inf`` for zero draw)."""
        if self.level_j <= threshold_j:
            return -math.inf
        if self.draw_w <= 0.0:
            return math.inf
        return self.t_ref + (self.level_j - threshold_j) / self.draw_w

    def advance_to(self, t: float) -> None:
        """Re-anchor the state at time ``t``."""
        self.level_j = self.level_at(t)
        self.t_ref = t

    def recharge_full_at(self, t: float) -> None:
        """Jump to full capacity at time ``t``."""
        self.level_j = self.capacity_j
        self.t_ref = t

    def recharge_to(self, level_j: float, t: float) -> None:
        """Jump to ``level_j`` (≤ capacity) at time ``t``."""
        self.level_j = min(level_j, self.capacity_j)
        self.t_ref = t


class LegacyMonitoringSimulation(MonitoringSimulation):
    """The offline loop over per-sensor ``_SensorState`` objects."""

    def _power_draws(self) -> Dict[int, float]:
        """Constant power draw per sensor from the legacy routing tree."""
        tree = legacy_build_routing_tree(self.network)
        relayed = relay_loads_bps(self.network, tree)
        draws: Dict[int, float] = {}
        for sensor in self.network.sensors():
            draws[sensor.id] = sensor_power_draw(
                self.radio,
                sensor.data_rate_bps,
                relayed[sensor.id],
                tree.next_hop_distance_m[sensor.id],
            )
        return draws

    def run(self) -> SimMetrics:
        """Execute the monitoring loop and return the metrics."""
        draws = self._power_draws()
        states: Dict[int, _SensorState] = {}
        for sensor in self.network.sensors():
            states[sensor.id] = _SensorState(
                capacity_j=self._true_capacity[sensor.id],
                level_j=sensor.battery.level_j,
                draw_w=draws[sensor.id],
            )
        metrics = SimMetrics(
            horizon_s=self.horizon_s,
            num_sensors=len(self.network),
            dead_time_s={sid: 0.0 for sid in states},
        )

        t = 0.0
        rounds = 0
        while t < self.horizon_s:
            below = [
                sid
                for sid, st in states.items()
                if st.level_at(t) < self.threshold * st.capacity_j
            ]
            if not below:
                # Jump to the next threshold crossing.
                next_cross = min(
                    (
                        st.crossing_time(self.threshold * st.capacity_j)
                        for st in states.values()
                    ),
                    default=math.inf,
                )
                if not math.isfinite(next_cross) or next_cross >= self.horizon_s:
                    break
                # Step just past the crossing: landing exactly on it
                # leaves the strict below-threshold test false and the
                # loop would spin in place.
                t = max(t, next_cross) + _TIME_EPS_S
                continue

            rounds += 1
            if rounds > self.max_rounds:
                raise RuntimeError(
                    f"exceeded max_rounds={self.max_rounds}; "
                    "the configuration appears pathological"
                )
            below.sort()

            faults = None
            if self.fault_plan is not None:
                faults = draw_round_faults(
                    self.fault_plan,
                    rounds - 1,
                    self.num_chargers,
                    sensor_ids=sorted(states),
                )
                # Hardware failures: the sensor permanently leaves the
                # monitored population (no further dead-time accrual).
                for sid in sorted(faults.failed_sensors):
                    if sid in states:
                        del states[sid]
                        metrics.sensors_failed.append(sid)
                below = [sid for sid in below if sid in states]
                # Request surge: a slice of the healthy population
                # drains to just below the threshold and joins the
                # round — same schedulers, much bigger instance.
                surged = surge_victims(
                    faults,
                    [sid for sid in states if sid not in set(below)],
                )
                for sid in surged:
                    st = states[sid]
                    st.recharge_to(
                        0.99 * self.threshold * st.capacity_j, t
                    )
                if surged:
                    below.extend(surged)
                    below.sort()
                    metrics.round_surged.append(len(surged))
                if not below:
                    metrics.fault_rounds += 1
                    t = t + 1.0
                    continue

            # Stage the scheduling instance: freeze residuals at t.
            residuals = {sid: states[sid].level_at(t) for sid in below}
            self.network.set_residuals(residuals)
            lifetimes = {
                sid: (
                    residuals[sid] / states[sid].draw_w
                    if states[sid].draw_w > 0
                    else math.inf
                )
                for sid in below
            }
            result = self.algorithm(
                self.network,
                below,
                self.num_chargers,
                charger=self.charger,
                lifetimes=lifetimes,
            )
            planned_delay = result.longest_delay()
            planned_finishes = result.sensor_finish_times()

            if faults is not None:
                outcome = execute_with_faults(
                    result, faults, repair_config=self.repair_config
                )
                round_delay = outcome.realized_delay_s
                finishes = outcome.sensor_finish_s
                charged = set(finishes)
                metrics.round_repairs.append(outcome.repairs)
                metrics.round_deferred.append(
                    len(set(below) - charged)
                )
                if faults.any:
                    metrics.fault_rounds += 1
            else:
                round_delay = planned_delay
                finishes = planned_finishes
                charged = None

            metrics.round_longest_delays_s.append(round_delay)
            metrics.round_request_counts.append(len(below))

            for sid in below:
                if charged is not None and sid not in charged:
                    # Deferred (degraded repair / stranded): stays
                    # uncharged and below threshold, so it re-enters
                    # the next round's request set; its dead time
                    # accrues in that round's ordinary accounting.
                    continue
                charge_at = t + finishes.get(sid, round_delay)
                state = states[sid]
                death = state.death_time()
                if death < charge_at:
                    start = min(death, self.horizon_s)
                    end = min(charge_at, self.horizon_s)
                    if end > start:
                        metrics.dead_time_s[sid] += end - start
                        if faults is not None:
                            planned_at = t + planned_finishes.get(
                                sid, planned_delay
                            )
                            planned_end = min(
                                max(start, planned_at), self.horizon_s
                            )
                            metrics.fault_extra_dead_time_s += max(
                                0.0, end - planned_end
                            )
                state.recharge_to(
                    self.policy.target_level_j(self._true_capacity[sid]),
                    charge_at,
                )

            # A round must consume time, or a zero-work schedule would
            # livelock the loop.
            t = t + max(round_delay, 1.0)

        # Sensors still dead (or dying before the horizon) after the
        # final round contribute until the horizon.
        for sid, state in states.items():
            death = state.death_time()
            if death < self.horizon_s:
                metrics.dead_time_s[sid] += self.horizon_s - death
        return metrics


class LegacyOnlineMonitoringSimulation(OnlineMonitoringSimulation):
    """The online loop over per-sensor ``_SensorState`` objects."""

    def _power_draws(self) -> Dict[int, float]:
        """Constant power draw per sensor from the legacy routing tree."""
        tree = legacy_build_routing_tree(self.network)
        relayed = relay_loads_bps(self.network, tree)
        draws: Dict[int, float] = {}
        for sensor in self.network.sensors():
            draws[sensor.id] = sensor_power_draw(
                self.radio,
                sensor.data_rate_bps,
                relayed[sensor.id],
                tree.next_hop_distance_m[sensor.id],
            )
        return draws

    def _schedule_arrival(
        self,
        queue: EventQueue,
        generation: Dict[int, int],
        sid: int,
        state: _SensorState,
    ) -> None:
        """Schedule the sensor's next threshold crossing, invalidating
        any earlier pending event for it."""
        crossing = state.crossing_time(self.threshold * state.capacity_j)
        generation[sid] = generation.get(sid, 0) + 1
        if math.isfinite(crossing):
            queue.schedule(
                max(crossing, 0.0) + _TIME_EPS_S,
                _ARRIVAL,
                (sid, generation[sid]),
            )

    def _settle(
        self,
        dispatch: _Dispatch,
        states: Dict[int, _SensorState],
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
            state = states[sid]
            death = state.death_time()
            if death < charge_at:
                start = min(death, self.horizon_s)
                end = min(charge_at, self.horizon_s)
                if end > start:
                    metrics.dead_time_s[sid] += end - start
            state.recharge_full_at(charge_at)
            arrival = dispatch.arrivals.get(sid, dispatch.depart_s)
            metrics.request_delays_s.append(charge_at - arrival)
            self.estimator.observe(charge_at - dispatch.depart_s)
            if self.deadline is not None:
                missed = self.deadline.settle(sid, charge_at)
                if missed:
                    metrics.deadline_misses += 1
            self._schedule_arrival(queue, generation, sid, state)

    def run(self) -> SimMetrics:
        """Execute the event-driven online monitoring loop."""
        draws = self._power_draws()
        states: Dict[int, _SensorState] = {}
        for sensor in self.network.sensors():
            states[sensor.id] = _SensorState(
                capacity_j=sensor.battery.capacity_j,
                level_j=sensor.battery.level_j,
                draw_w=draws[sensor.id],
            )
        metrics = SimMetrics(
            horizon_s=self.horizon_s,
            num_sensors=len(self.network),
            dead_time_s={sid: 0.0 for sid in states},
        )

        queue = EventQueue()
        #: sid -> latest valid arrival-event generation.
        generation: Dict[int, int] = {}
        #: outstanding requests: sid -> true arrival time.
        pending: Dict[int, float] = {}
        for sid in sorted(states):
            st = states[sid]
            if st.level_at(0.0) < self.threshold * st.capacity_j:
                self._register_arrival(sid, 0.0, pending, metrics)
            else:
                self._schedule_arrival(queue, generation, sid, st)

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
                    sensor_ids=sorted(states),
                )
                for sid in sorted(faults.failed_sensors):
                    if sid in states:
                        del states[sid]
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
                    [sid for sid in sorted(states) if sid not in exempt],
                )
                for sid in surged:
                    st = states[sid]
                    st.recharge_to(
                        0.99 * self.threshold * st.capacity_j, t
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
            residuals = {sid: states[sid].level_at(t) for sid in batch}
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

        for sid, state in states.items():
            death = state.death_time()
            if death < self.horizon_s:
                metrics.dead_time_s[sid] += self.horizon_s - death
        if self.audit:
            self._audit_sweep()
        return metrics

