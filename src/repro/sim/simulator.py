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
from typing import Callable, Dict, Optional, Union

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
