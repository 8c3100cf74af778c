"""Mid-execution schedule repair after an MCV breakdown.

The paper's schedules assume K vehicles that never fail. When one
breaks down mid-round, its remaining stops would strand their sensors
— and a naive reassignment can violate the no-simultaneous-charging
constraint on the *executed* timeline. :func:`repair_schedule` is the
recovery engine: given a partially-executed
:class:`~repro.core.schedule.ChargingSchedule`, the failed tour and the
failure time, it

1. freezes the past — stops that finished before the failure stay on
   the failed tour (they physically happened), and stops on surviving
   tours that already started are never delayed;
2. orphans the failed tour's remaining stops (including the one
   interrupted mid-charge, which must be redone in full — partial
   charge is conservatively discarded);
3. re-inserts each orphan into a surviving tour using the paper's
   latest-neighbour-finish rule (Eq. 9/13 transplanted to the repair
   setting: anchor after the latest-finishing already-scheduled stop
   whose disk intersects the orphan's), falling back to the
   least-loaded tour when no disk neighbour is scheduled;
4. restores the constraint with the one wait-insertion loop,
   :func:`repro.core.conflicts.resolve_conflicts`, frozen at the
   failure time and skipping the failed tour: only stops that have not
   yet started are delayed — so realized cross-tour disk intervals
   stay disjoint *by construction*;
5. retries with a relaxed delay budget (bounded retry/backoff), and
   when no repair fits the final budget enters an explicit **degraded
   mode**: the lowest-urgency orphans are dropped one by one and
   reported as *deferred* — their sensors lose their responsible stop
   and must be picked up by a later round — rather than failing.

The engine never raises on an unrepairable instance; the worst outcome
is a :class:`RepairOutcome` with every orphan deferred (e.g. K = 1,
no surviving tour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

from repro.core.conflicts import OVERLAP_EPS, resolve_conflicts
from repro.core.schedule import ChargingSchedule


@dataclass(frozen=True)
class RepairConfig:
    """Tuning knobs of the repair engine.

    Attributes:
        max_attempts: bound on the retry/backoff loop (attempt ``i``
            uses a delay budget of
            ``max_delay_stretch * backoff_factor**(i-1)`` times the
            pre-fault longest delay).
        max_delay_stretch: delay budget of the first attempt, as a
            multiple of the pre-fault longest delay.
        backoff_factor: budget relaxation per retry (> 1).
        notification_delay_s: depot-communication delay — reassigned
            stops cannot start charging before
            ``failure_time_s + notification_delay_s``.
    """

    max_attempts: int = 3
    # Dimensionless multiple of the pre-fault longest delay, not a time.
    max_delay_stretch: float = 2.0  # repro-lint: disable=unit-suffix
    backoff_factor: float = 1.25
    notification_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError(
                f"max_attempts must be positive, got {self.max_attempts}"
            )
        if self.max_delay_stretch < 1.0:
            raise ValueError(
                f"max_delay_stretch must be >= 1, got {self.max_delay_stretch}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.notification_delay_s < 0.0:
            raise ValueError(
                f"notification_delay_s must be non-negative, "
                f"got {self.notification_delay_s}"
            )


@dataclass
class RepairOutcome:
    """What the repair engine did to the schedule.

    Attributes:
        failed_tour: index of the broken vehicle's tour.
        failure_time_s: when the vehicle failed.
        completed: failed-tour stops that had already finished (kept).
        interrupted: the stop cut off mid-charge, if any (re-inserted
            with its full duration — partial charge is discarded).
        reassigned: orphan stops successfully moved to surviving tours.
        deferred: orphan stops dropped in degraded mode.
        deferred_sensors: sensors that lost their responsible stop via
            deferral (their dead time keeps accruing until a later
            round recharges them — see DESIGN.md, "Fault model &
            repair").
        waits_inserted: waits added to restore the constraint.
        attempts: retry/backoff attempts consumed.
        degraded: whether degraded mode was entered (any deferral, or
            the final budget was still exceeded).
        repaired_longest_delay_s: longest delay after the repair.
    """

    failed_tour: int
    failure_time_s: float
    completed: List[int] = field(default_factory=list)
    interrupted: Optional[int] = None
    reassigned: List[int] = field(default_factory=list)
    deferred: List[int] = field(default_factory=list)
    deferred_sensors: List[int] = field(default_factory=list)
    waits_inserted: int = 0
    attempts: int = 0
    degraded: bool = False
    repaired_longest_delay_s: float = 0.0

    @property
    def fully_repaired(self) -> bool:
        """Every orphan found a new tour and the budget held."""
        return not self.degraded


def _default_urgency(schedule: ChargingSchedule, node: int) -> float:
    """More sensors and more remaining charge demand = more urgent."""
    sensors = schedule.charges.get(node, frozenset())
    return float(len(sensors)) * 1e9 + schedule.duration.get(node, 0.0)


def _valid_anchor(
    schedule: ChargingSchedule, anchor: int, failure_time_s: float
) -> bool:
    """An insertion point is physical only if no already-started stop
    would end up downstream of the insertion: the anchor must be the
    last stop of its tour, or its successor must not have started (a
    successor starting exactly at the failure time is already active
    under the closed-interval rule, so it cannot be displaced)."""
    tour = schedule.tours[schedule.tour_of[anchor]]
    idx = tour.index(anchor)
    if idx == len(tour) - 1:
        return True
    successor = tour[idx + 1]
    return schedule.stop_interval(successor)[0] > failure_time_s


def _choose_anchor(
    schedule: ChargingSchedule,
    node: int,
    failed_tour: int,
    failure_time_s: float,
) -> Tuple[int, Optional[int]]:
    """The latest-neighbour-finish rule, transplanted to repair.

    Among scheduled stops on surviving tours whose disk intersects
    ``node``'s, pick the one with the maximum finish time whose
    insertion point is physically valid; insert right after it. When no
    disk neighbour qualifies, fall back to appending to the surviving
    tour with the smallest current delay.
    """
    own = schedule.coverage[node]
    candidates = [
        other
        for other in schedule.scheduled_stops()
        if schedule.tour_of[other] != failed_tour
        and (own & schedule.coverage[other])
        and _valid_anchor(schedule, other, failure_time_s)
    ]
    if candidates:
        anchor = max(
            candidates, key=lambda o: (schedule.finish[o], -o)
        )
        return schedule.tour_of[anchor], anchor
    surviving = [
        k for k in range(schedule.num_tours) if k != failed_tour
    ]
    tour_index = min(
        surviving, key=lambda k: (schedule.tour_delay(k), k)
    )
    tour = schedule.tours[tour_index]
    return tour_index, tour[-1] if tour else None


def repair_schedule(
    schedule: ChargingSchedule,
    failed_tour: int,
    failure_time_s: float,
    config: Optional[RepairConfig] = None,
    urgency: Optional[Mapping[int, float]] = None,
) -> RepairOutcome:
    """Reassign a broken vehicle's remaining stops to surviving tours.

    Mutates ``schedule`` in place (use
    :meth:`~repro.core.schedule.ChargingSchedule.copy` first to keep
    the original) and never raises on an unrepairable instance — the
    degraded path defers stops instead.

    Args:
        schedule: the partially-executed schedule.
        failed_tour: index of the broken vehicle's tour.
        failure_time_s: execution time at which the vehicle failed.
        config: engine tuning; defaults to :class:`RepairConfig`.
        urgency: optional per-stop urgency scores (higher = placed
            first, deferred last); defaults to sensors-then-demand.

    Returns:
        The :class:`RepairOutcome`.
    """
    cfg = config if config is not None else RepairConfig()
    if not 0 <= failed_tour < schedule.num_tours:
        raise ValueError(
            f"failed_tour {failed_tour} out of range for "
            f"{schedule.num_tours} tours"
        )
    if failure_time_s < 0.0:
        raise ValueError(
            f"failure_time_s must be non-negative, got {failure_time_s}"
        )

    outcome = RepairOutcome(
        failed_tour=failed_tour, failure_time_s=failure_time_s
    )
    pre_fault_longest = schedule.longest_delay()
    # Reassigned stops must stay delayable: the frozen boundary is
    # closed (start <= failure time is frozen), so with a zero
    # notification delay the clamp floor sits one epsilon past it.
    effective_time = max(
        failure_time_s + cfg.notification_delay_s,
        failure_time_s + OVERLAP_EPS,
    )

    # Partition the failed tour: kept past vs orphaned future.
    orphans: List[int] = []
    for node in list(schedule.tours[failed_tour]):
        start, finish = schedule.stop_interval(node)
        if finish <= failure_time_s:
            outcome.completed.append(node)
        else:
            # Closed boundary: charging that began exactly at the
            # failure instant was cut off mid-charge.
            if start <= failure_time_s:
                outcome.interrupted = node
            orphans.append(node)
    # Last first: each removal then leaves no stop downstream of it to
    # retime (the kept prefix is upstream of every orphan).
    for node in reversed(orphans):
        schedule.remove_stop(node)

    def score(node: int) -> Tuple[float, int]:
        if urgency is not None and node in urgency:
            return (float(urgency[node]), -node)
        return (_default_urgency(schedule, node), -node)

    orphans.sort(key=score, reverse=True)

    surviving = [k for k in range(schedule.num_tours) if k != failed_tour]
    if not surviving:
        # K = 1: nothing to repair onto; defer everything.
        for node in orphans:
            outcome.deferred.append(node)
            outcome.deferred_sensors.extend(
                sorted(schedule.charges.get(node, frozenset()))
            )
            _release(schedule, node)
        outcome.degraded = bool(orphans)
        outcome.attempts = 1
        outcome.repaired_longest_delay_s = schedule.longest_delay()
        return outcome

    # Place every orphan via the latest-neighbour-finish rule, clamped
    # to start no earlier than the notification time.
    for node in orphans:
        tour_index, anchor = _choose_anchor(
            schedule, node, failed_tour, failure_time_s
        )
        schedule.reinsert_stop(tour_index, anchor, node)
        start = schedule.stop_interval(node)[0]
        if start < effective_time:
            schedule.add_wait(node, effective_time - start)
        outcome.reassigned.append(node)

    # Retry/backoff: restore the constraint, then check the delay
    # budget; each retry relaxes the budget. If the final budget still
    # does not hold, degraded mode defers lowest-urgency orphans.
    placed = list(outcome.reassigned)
    budget = cfg.max_delay_stretch * max(pre_fault_longest, effective_time)
    for attempt in range(1, cfg.max_attempts + 1):
        outcome.attempts = attempt
        outcome.waits_inserted += resolve_conflicts(
            schedule,
            frozen_before_s=failure_time_s,
            skip_tour=failed_tour,
        )
        if schedule.longest_delay() <= budget:
            outcome.repaired_longest_delay_s = schedule.longest_delay()
            return outcome
        if attempt < cfg.max_attempts:
            budget *= cfg.backoff_factor
            continue

    # Degraded mode: drop lowest-urgency placed orphans until the
    # final (most relaxed) budget holds or none remain. Removing a stop
    # shifts its tour's downstream stops *earlier*, so each deferral
    # re-clamps the notification floor and re-resolves conflicts.
    while placed and schedule.longest_delay() > budget:
        victim = placed.pop()  # placed is sorted most-urgent first
        outcome.reassigned.remove(victim)
        outcome.deferred.append(victim)
        outcome.deferred_sensors.extend(
            sorted(schedule.charges.get(victim, frozenset()))
        )
        schedule.remove_stop(victim, release_coverage=True)
        for node in placed:
            start = schedule.stop_interval(node)[0]
            if start < effective_time:
                schedule.add_wait(node, effective_time - start)
        outcome.waits_inserted += resolve_conflicts(
            schedule,
            frozen_before_s=failure_time_s,
            skip_tour=failed_tour,
        )
    outcome.degraded = True
    outcome.repaired_longest_delay_s = schedule.longest_delay()
    return outcome


def _release(schedule: ChargingSchedule, node: int) -> None:
    """Release the coverage of an already-removed stop."""
    for sensor in schedule.charges.pop(node, frozenset()):
        schedule.charged_by.pop(sensor, None)
    schedule.duration.pop(node, None)


__all__ = [
    "RepairConfig",
    "RepairOutcome",
    "repair_schedule",
]
