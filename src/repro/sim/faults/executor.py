"""Fault-aware execution of a scheduled round.

:func:`execute_with_faults` takes the
:class:`~repro.core.schedule.ChargingSchedule` a scheduler returned —
every planner, multi-node or one-to-one, returns one — and one
:class:`~repro.sim.faults.specs.RoundFaults` draw, and produces the
*executed* round: realized sensor finish times, the realized longest
delay, and what the recovery machinery had to do.

A breakdown triggers the constraint-aware repair engine
(:mod:`repro.core.repair`) on a copy of the schedule, so realized
cross-tour disk intervals stay disjoint by construction;
droop/slowdown/interruption faults then stretch the repaired timeline
and the conflict engine
(:func:`~repro.core.conflicts.interval_conflicts`) reports any realized
violations, oriented and ordered by tour position.
A one-to-one schedule's stops share no sensor, so its conflict list
is always empty.

Sensors whose stop is *deferred* (degraded repair, or no surviving
vehicle to hand work to) get no finish time — they stay uncharged this
round and must be picked up by a later one. The caller (the monitoring
simulator) is responsible for not recharging them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.conflicts import interval_conflicts
from repro.core.repair import RepairConfig, RepairOutcome, repair_schedule
from repro.core.schedule import ChargingSchedule
from repro.sim.faults.specs import NO_FAULTS, RoundFaults
from repro.sim.faults.timeline import replay_with_factors


@dataclass
class FaultyOutcome:
    """One round's executed (post-fault, post-repair) timeline.

    Attributes:
        planned_delay_s: the scheduler's longest delay (pre-fault).
        realized_delay_s: the executed longest delay.
        sensor_finish_s: realized charge-finish time per sensor; a
            sensor absent from this map was **not** charged this round.
        conflicts: realized no-simultaneous-charging violations.
        repairs: stops reassigned to surviving vehicles.
        deferred_sensors: sensors dropped by degraded-mode repair
            (every orphan when no vehicle survives), sorted.
        breakdown_time_s: when the vehicle failed, if one did.
        degraded: whether repair entered degraded mode.
        repair: the full repair record, if a breakdown was repaired.
    """

    planned_delay_s: float
    realized_delay_s: float
    sensor_finish_s: Dict[int, float] = field(default_factory=dict)
    conflicts: List[Tuple[int, int, float]] = field(default_factory=list)
    repairs: int = 0
    deferred_sensors: List[int] = field(default_factory=list)
    breakdown_time_s: Optional[float] = None
    degraded: bool = False
    repair: Optional[RepairOutcome] = None

    @property
    def extra_delay_s(self) -> float:
        """Delay added by faults (realized minus planned)."""
        return self.realized_delay_s - self.planned_delay_s

    @property
    def violation_count(self) -> int:
        """Realized constraint violations."""
        return len(self.conflicts)


def execute_with_faults(
    result,
    faults: RoundFaults = NO_FAULTS,
    repair_config: Optional[RepairConfig] = None,
) -> FaultyOutcome:
    """Execute one scheduled round under a fault draw.

    Args:
        result: a :class:`ChargingSchedule`, possibly wrapped in a
            :class:`~repro.pipeline.planner.PlannedSchedule` (anything
            else raises ``TypeError``). Never mutated — breakdown
            repair runs on a copy.
        faults: the round's fault draw.
        repair_config: repair tuning; the draw's communication delay is
            layered on top of the config's notification delay.

    Returns:
        The :class:`FaultyOutcome`.
    """
    schedule = getattr(result, "raw", result)
    if not isinstance(schedule, ChargingSchedule):
        raise TypeError(
            f"cannot execute faults against {type(schedule).__name__}; "
            f"expected a ChargingSchedule"
        )
    planned = schedule.longest_delay()
    outcome = FaultyOutcome(planned_delay_s=planned, realized_delay_s=planned)

    working = schedule
    if faults.breakdown is not None and planned > 0.0:
        working = schedule.copy()
        failure_time = faults.breakdown.at_fraction * planned
        base = repair_config if repair_config is not None else RepairConfig()
        cfg = replace(
            base,
            notification_delay_s=(
                base.notification_delay_s + faults.comm_delay_s
            ),
        )
        repair = repair_schedule(
            working, faults.breakdown.vehicle, failure_time, config=cfg
        )
        outcome.breakdown_time_s = failure_time
        outcome.repair = repair
        outcome.repairs = len(repair.reassigned)
        outcome.deferred_sensors = sorted(set(repair.deferred_sensors))
        outcome.degraded = repair.degraded

    executed, realized = replay_with_factors(
        working,
        travel_factor=faults.travel_factor,
        charge_factor=faults.charge_factor,
        pause_rank=faults.interrupted_rank,
        pause_s=faults.interruption_pause_s,
    )
    outcome.realized_delay_s = realized
    outcome.conflicts = interval_conflicts(executed, working.coverage)

    # Realized per-sensor finishes: scale each sensor's planned offset
    # into its stop's interval by the charge factor, clamped to the
    # stop's realized finish (a sensor never finishes after its stop).
    planned_sensor = working.sensor_finish_times()
    realized_start = {stop.node: stop.start_s for stop in executed}
    realized_finish = {stop.node: stop.finish_s for stop in executed}
    for node, sensors in working.charges.items():
        if node not in realized_start:
            continue
        planned_start = working.stop_interval(node)[0]
        for sensor in sensors:
            offset = planned_sensor[sensor] - planned_start
            outcome.sensor_finish_s[sensor] = min(
                realized_start[node] + offset * faults.charge_factor,
                realized_finish[node],
            )
    return outcome


__all__ = ["FaultyOutcome", "execute_with_faults"]
