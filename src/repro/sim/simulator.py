"""One-year monitoring simulation (Section VI).

The paper evaluates every algorithm inside a long-horizon loop: sensors
deplete according to the energy-consumption model, request charging
when their residual drops below the threshold, the base station batches
pending requests into scheduling *rounds* (the K MCVs leave the depot
together and the round lasts until the longest tour returns), and two
quantities are measured — the longest tour duration per round, and the
total time sensors spend dead.

Because every sensor's power draw is constant (fixed data rate, fixed
routing tree), battery depletion is piecewise linear and the simulator
advances in closed form from event to event — no ticking. The state of
sensor ``i`` is ``(t_ref, level at t_ref, draw)``; threshold crossings,
deaths and recharges are all O(1) computations on that triple.
:class:`BatteryTrajectories` holds the triples of the whole population
as numpy arrays, so a round's below-threshold scan and the jump to the
next crossing are one vectorized pass each, and the Python work of a
round grows with its request set, not with the network.

Round model:

* a round starts as soon as (a) the previous round has ended (all
  vehicles back at the depot) and (b) at least one sensor is below the
  threshold;
* the round's request set ``V_s`` is every below-threshold sensor at
  the round start (including dead ones);
* the scheduler returns per-sensor charge-finish offsets; each charged
  sensor jumps to full capacity at its finish moment and resumes
  depleting;
* the round ends after the scheduler's longest tour delay.

Dead-time accounting: a sensor is dead from the moment its battery
empties until the moment it is recharged; contributions are clipped to
the monitoring horizon.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.repair import RepairConfig
from repro.energy.battery import DEFAULT_REQUEST_THRESHOLD
from repro.energy.charging import ChargerSpec
from repro.energy.consumption import RadioModel, sensor_power_draw
from repro.energy.policies import FULL_CHARGE, ChargingPolicy
from repro.network.routing import build_routing_tree, relay_loads_bps
from repro.network.topology import WRSN
from repro.pipeline.planner import get_planner, run_planner
from repro.sim.faults.executor import execute_with_faults
from repro.sim.faults.injector import draw_round_faults, surge_victims
from repro.sim.faults.specs import FaultPlan
from repro.sim.metrics import SimMetrics

#: The paper's monitoring period ``T_M`` (one year), in seconds.
SECONDS_PER_YEAR = 365.0 * 24.0 * 3600.0

#: Minimal time step past a threshold crossing (see the jump in
#: :meth:`MonitoringSimulation.run`).
_TIME_EPS_S = 1e-6


class BatteryTrajectories:
    """Piecewise-linear battery trajectories of a sensor population.

    Sensor ``i``'s battery is ``(t_ref, level at t_ref, draw)`` plus its
    capacity, each held in one numpy array row (rows in ascending id
    order), and an alive mask that a hardware failure clears. The
    population-wide questions a round asks — which sensors are below
    the threshold now, when the next one crosses it — are one
    vectorized pass each; the per-sensor accessors serve the O(|V_s|)
    bookkeeping of the requested sensors. Both evaluate the scalar
    formulas with the same IEEE operations in the same order, so the
    answers are bit-identical to a per-sensor loop.

    Args:
        ids: sensor ids, strictly ascending.
        capacity_j: battery capacity per sensor.
        level_j: battery level per sensor at time 0.
        draw_w: constant power draw per sensor.

    Raises:
        ValueError: on mismatched lengths, ids not strictly ascending,
            a non-positive capacity, a level outside ``[0, capacity]``
            or a negative (or NaN) draw.
    """

    def __init__(
        self,
        ids: Sequence[int],
        capacity_j: Sequence[float],
        level_j: Sequence[float],
        draw_w: Sequence[float],
    ):
        self._ids = np.asarray(ids, dtype=np.int64)
        self._capacity = np.asarray(capacity_j, dtype=np.float64)
        self._level = np.array(level_j, dtype=np.float64)
        self._draw = np.asarray(draw_w, dtype=np.float64)
        n = len(self._ids)
        if not (len(self._capacity) == len(self._level) == len(self._draw) == n):
            raise ValueError(
                "ids, capacity_j, level_j and draw_w must have one entry "
                "per sensor"
            )
        if n > 1 and not bool(np.all(self._ids[1:] > self._ids[:-1])):
            raise ValueError("sensor ids must be strictly ascending")
        if not bool(np.all(self._capacity > 0.0)):
            raise ValueError("battery capacities must be positive")
        if not bool(
            np.all((self._level >= 0.0) & (self._level <= self._capacity))
        ):
            raise ValueError("battery levels must lie in [0, capacity]")
        if not bool(np.all(self._draw >= 0.0)):
            raise ValueError("power draws must be non-negative")
        self._t_ref = np.zeros(n)
        self._alive = np.ones(n, dtype=bool)
        self._row = {sid: i for i, sid in enumerate(self._ids.tolist())}

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def __contains__(self, sensor_id: int) -> bool:
        """Whether ``sensor_id`` is monitored and has not failed."""
        row = self._row.get(sensor_id)
        return row is not None and bool(self._alive[row])

    def alive_ids(self) -> List[int]:
        """Ids of the sensors that have not failed, ascending."""
        return self._ids[self._alive].tolist()

    def fail(self, sensor_id: int) -> None:
        """Drop a hardware-failed sensor from the population."""
        self._alive[self._row[sensor_id]] = False

    def below(self, t: float, threshold: float) -> List[int]:
        """Alive sensors whose level at ``t`` is below ``threshold``
        times their capacity, ascending."""
        level = np.maximum(
            0.0, self._level - self._draw * (t - self._t_ref)
        )
        hit = (level < threshold * self._capacity) & self._alive
        return self._ids[hit].tolist()

    def next_crossing(self, threshold: float) -> float:
        """Earliest :meth:`crossing_time` of ``threshold`` times the
        capacity over the alive sensors (``inf`` when none)."""
        if not self._alive.any():
            return math.inf
        threshold_j = threshold * self._capacity
        draining = self._draw > 0.0
        crossing = np.full(len(self._ids), math.inf)
        crossing[draining] = self._t_ref[draining] + (
            self._level[draining] - threshold_j[draining]
        ) / self._draw[draining]
        crossing[self._level <= threshold_j] = -math.inf
        return float(crossing[self._alive].min())

    # ------------------------------------------------------------------
    # One sensor
    # ------------------------------------------------------------------

    def capacity_j(self, sensor_id: int) -> float:
        """Battery capacity of one sensor."""
        return self._capacity.item(self._row[sensor_id])

    def draw_w(self, sensor_id: int) -> float:
        """Constant power draw of one sensor."""
        return self._draw.item(self._row[sensor_id])

    def level_at(self, sensor_id: int, t: float) -> float:
        """Battery level at absolute time ``t`` (>= ``t_ref``)."""
        row = self._row[sensor_id]
        return max(
            0.0,
            self._level.item(row)
            - self._draw.item(row) * (t - self._t_ref.item(row)),
        )

    def death_time(self, sensor_id: int) -> float:
        """Absolute time the battery empties (``inf`` for zero draw)."""
        row = self._row[sensor_id]
        draw_w = self._draw.item(row)
        if draw_w <= 0.0:
            return math.inf
        return self._t_ref.item(row) + self._level.item(row) / draw_w

    def crossing_time(self, sensor_id: int, threshold_j: float) -> float:
        """Absolute time the level reaches ``threshold_j`` from above
        (``-inf`` if already below, ``inf`` for zero draw)."""
        row = self._row[sensor_id]
        level_j = self._level.item(row)
        if level_j <= threshold_j:
            return -math.inf
        draw_w = self._draw.item(row)
        if draw_w <= 0.0:
            return math.inf
        return self._t_ref.item(row) + (level_j - threshold_j) / draw_w

    def recharge_full_at(self, sensor_id: int, t: float) -> None:
        """Jump to full capacity at time ``t``."""
        row = self._row[sensor_id]
        self._level[row] = self._capacity[row]
        self._t_ref[row] = t

    def recharge_to(self, sensor_id: int, level_j: float, t: float) -> None:
        """Jump to ``level_j`` (≤ capacity) at time ``t``."""
        row = self._row[sensor_id]
        self._level[row] = min(level_j, self._capacity.item(row))
        self._t_ref[row] = t


class MonitoringSimulation:
    """Simulate one algorithm over the monitoring period.

    Args:
        network: the WRSN instance (used read-only; batteries are
            staged on a private copy).
        algorithm: a registered planner name (``"Appro"``,
            ``"K-EDF"``, ...) or any callable with the uniform
            scheduler signature ``(network, request_ids, num_chargers,
            charger, lifetimes)`` returning an object with
            ``longest_delay()`` and ``sensor_finish_times()``.
        num_chargers: ``K``.
        charger: MCV parameters; paper defaults when omitted.
        threshold: request threshold as a residual fraction (0.2).
        horizon_s: monitoring period ``T_M``; default one year.
        radio: energy-consumption model parameters.
        max_rounds: safety cap on scheduling rounds (a correct setup
            never reaches it; raises if exceeded).
        policy: how full each visit charges a sensor. The default is
            the paper's full-charging model; a partial policy shortens
            rounds at the price of more frequent requests. Implemented
            by scaling the battery capacities the *schedulers* see down
            to the policy target, so every algorithm's Eq. (1) charge
            times automatically become policy charge times; the
            simulator's own depletion states keep the true capacities.
        fault_plan: when given, each round draws faults from the plan
            (round index = rounds started so far) and executes through
            the fault-aware executor: breakdowns trigger mid-round
            schedule repair, droop/slowdown stretch the realized
            timeline, hardware-failed sensors permanently leave the
            monitored population, and deferred sensors stay uncharged
            until they re-request in a later round.
        repair_config: repair tuning used on breakdowns.
    """

    def __init__(
        self,
        network: WRSN,
        algorithm: Union[str, Callable],
        num_chargers: int,
        charger: Optional[ChargerSpec] = None,
        threshold: float = DEFAULT_REQUEST_THRESHOLD,
        horizon_s: float = SECONDS_PER_YEAR,
        radio: Optional[RadioModel] = None,
        max_rounds: int = 100_000,
        policy: Optional["ChargingPolicy"] = None,
        fault_plan: Optional[FaultPlan] = None,
        repair_config: Optional[RepairConfig] = None,
    ):
        if num_chargers <= 0:
            raise ValueError(
                f"num_chargers must be positive, got {num_chargers}"
            )
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        if horizon_s <= 0:
            raise ValueError(f"horizon must be positive, got {horizon_s}")
        self.network = network.copy()
        self.algorithm = self._resolve_algorithm(algorithm)
        self.num_chargers = num_chargers
        self.charger = charger if charger is not None else ChargerSpec()
        self.threshold = threshold
        self.horizon_s = float(horizon_s)
        self.radio = radio if radio is not None else RadioModel()
        self.max_rounds = max_rounds
        self.policy = policy if policy is not None else FULL_CHARGE
        self.fault_plan = fault_plan
        self.repair_config = repair_config
        #: True battery capacities (the scheduling copy may be scaled
        #: down to the policy target).
        self._true_capacity = {
            s.id: s.battery.capacity_j for s in self.network.sensors()
        }
        if not self.policy.is_full:
            if self.policy.target_fraction <= self.threshold:
                raise ValueError(
                    "charge target must exceed the request threshold"
                )
            for sensor in self.network.sensors():
                sensor.battery.capacity_j = self.policy.target_level_j(
                    self._true_capacity[sensor.id]
                )
                sensor.battery.level_j = min(
                    sensor.battery.level_j, sensor.battery.capacity_j
                )

    @staticmethod
    def _resolve_algorithm(algorithm: Union[str, Callable]) -> Callable:
        if isinstance(algorithm, str):
            return functools.partial(
                run_planner, get_planner(algorithm).name
            )
        return algorithm

    def _power_draws(self) -> Dict[int, float]:
        """Constant power draw per sensor from the routing tree."""
        tree = build_routing_tree(self.network)
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

    def _trajectories(self) -> BatteryTrajectories:
        """Every sensor's battery trajectory from its level now, its
        true capacity and its routing-tree power draw."""
        draws = self._power_draws()
        sensors = self.network.sensors()
        return BatteryTrajectories(
            ids=[s.id for s in sensors],
            capacity_j=[self._true_capacity[s.id] for s in sensors],
            level_j=[s.battery.level_j for s in sensors],
            draw_w=[draws[s.id] for s in sensors],
        )

    def run(self) -> SimMetrics:
        """Execute the monitoring loop and return the metrics."""
        states = self._trajectories()
        metrics = SimMetrics(
            horizon_s=self.horizon_s,
            num_sensors=len(self.network),
            dead_time_s={sid: 0.0 for sid in states.alive_ids()},
        )

        t = 0.0
        rounds = 0
        while t < self.horizon_s:
            below = states.below(t, self.threshold)
            if not below:
                # Jump to the next threshold crossing.
                next_cross = states.next_crossing(self.threshold)
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

            faults = None
            if self.fault_plan is not None:
                faults = draw_round_faults(
                    self.fault_plan,
                    rounds - 1,
                    self.num_chargers,
                    sensor_ids=states.alive_ids(),
                )
                # Hardware failures: the sensor permanently leaves the
                # monitored population (no further dead-time accrual).
                for sid in sorted(faults.failed_sensors):
                    if sid in states:
                        states.fail(sid)
                        metrics.sensors_failed.append(sid)
                below = [sid for sid in below if sid in states]
                # Request surge: a slice of the healthy population
                # drains to just below the threshold and joins the
                # round — same schedulers, much bigger instance.
                requested = set(below)
                surged = surge_victims(
                    faults,
                    [
                        sid
                        for sid in states.alive_ids()
                        if sid not in requested
                    ],
                )
                for sid in surged:
                    states.recharge_to(
                        sid,
                        0.99 * self.threshold * states.capacity_j(sid),
                        t,
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
            residuals = {sid: states.level_at(sid, t) for sid in below}
            self.network.set_residuals(residuals)
            lifetimes = {}
            for sid in below:
                draw_w = states.draw_w(sid)
                lifetimes[sid] = (
                    residuals[sid] / draw_w if draw_w > 0 else math.inf
                )
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
                death = states.death_time(sid)
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
                states.recharge_to(
                    sid,
                    self.policy.target_level_j(self._true_capacity[sid]),
                    charge_at,
                )

            # A round must consume time, or a zero-work schedule would
            # livelock the loop.
            t = t + max(round_delay, 1.0)

        # Sensors still dead (or dying before the horizon) after the
        # final round contribute until the horizon.
        for sid in states.alive_ids():
            death = states.death_time(sid)
            if death < self.horizon_s:
                metrics.dead_time_s[sid] += self.horizon_s - death
        return metrics
