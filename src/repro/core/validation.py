"""Feasibility validation of charging schedules.

A schedule is feasible (Definition 1) when:

1. **Coverage** — every requested sensor lies in the charging disk of
   some scheduled stop and has a responsible stop.
2. **Node-disjointness** — every sojourn location appears on at most
   one tour, at most once (tours share only the depot).
3. **No simultaneous charging** — no two stops on *different* tours
   both (a) have intersecting charging disks and (b) have charging
   intervals overlapping for positive duration. (Two stops on the same
   tour are served sequentially by one MCV and can never conflict.)

:func:`validate_schedule` returns the violations it finds rather than
raising, so tests, benchmarks and the conflict-resolution pass can all
consume the same report. :func:`resolve_conflicts` is the minimal
repair: delay the later-arriving stop of each conflicting pair until
the earlier one finishes, iterating to a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.conflicts import (
    OVERLAP_EPS,
    ConflictResolver,
    conflicting_pairs,
)
from repro.core.schedule import ChargingSchedule


@dataclass(frozen=True)
class ScheduleViolation:
    """One feasibility defect found by the validator.

    Attributes:
        kind: ``"coverage"``, ``"disjointness"`` or ``"overlap"``.
        detail: human-readable description.
        nodes: the stops / sensors involved.
    """

    kind: str
    detail: str
    nodes: Tuple[int, ...]


def validate_schedule(
    schedule: ChargingSchedule,
    required_sensors: Iterable[int],
    groups: Optional[Mapping[int, Sequence[int]]] = None,
) -> List[ScheduleViolation]:
    """Check all three feasibility conditions.

    Args:
        schedule: the schedule to validate.
        required_sensors: the request set ``V_s`` that must be covered.
        groups: optional pre-built sensor -> stop index forwarded to
            the conflict engine (see
            :meth:`repro.core.context.PlanningContext.sensor_stop_groups`).

    Returns:
        All violations found; an empty list means the schedule is
        feasible.
    """
    violations: List[ScheduleViolation] = []

    # 1. Coverage.
    covered = schedule.covered_sensors()
    missing = sorted(set(required_sensors) - covered)
    for sensor in missing:
        violations.append(
            ScheduleViolation(
                kind="coverage",
                detail=f"sensor {sensor} has no responsible stop",
                nodes=(sensor,),
            )
        )

    # 2. Node-disjointness.
    seen = {}
    for k, tour in enumerate(schedule.tours):
        for node in tour:
            if node in seen:
                if seen[node] == k:
                    detail = f"stop {node} appears twice on tour {k}"
                else:
                    detail = (
                        f"stop {node} appears on tours {seen[node]} "
                        f"and {k}"
                    )
                violations.append(
                    ScheduleViolation(
                        kind="disjointness",
                        detail=detail,
                        nodes=(node,),
                    )
                )
            seen[node] = k

    # 3. No simultaneous charging.
    for u, v, overlap in conflicting_pairs(schedule, groups=groups):
        shared = sorted(schedule.coverage[u] & schedule.coverage[v])
        violations.append(
            ScheduleViolation(
                kind="overlap",
                detail=(
                    f"stops {u} (tour {schedule.tour_of[u]}) and {v} "
                    f"(tour {schedule.tour_of[v]}) share sensors {shared} "
                    f"and overlap for {overlap:.3f}s"
                ),
                nodes=(u, v),
            )
        )
    return violations


def resolve_conflicts(
    schedule: ChargingSchedule, max_rounds: int = 1000
) -> int:
    """Repair overlap violations by inserting waits.

    Repeatedly finds the conflicting pair whose later stop starts
    earliest, and delays that stop until the earlier one finishes.
    Waits only ever push intervals later, so the process terminates:
    each round strictly orders one conflicting pair and never reorders
    an already-separated one on the same tours... in pathological cases
    the round limit guards against livelock.

    The conflict set is maintained incrementally by the engine's
    :class:`~repro.core.conflicts.ConflictResolver`: each inserted wait
    re-checks only the delayed tour's downstream stops against the
    per-sensor groups instead of rescanning the whole schedule, so a
    resolution run costs O(waits · Σ_s d_s log d_s) rather than the
    retired O(waits · n²) — with byte-identical results (same pair
    chosen each round, same wait lengths).

    A conflict-free schedule, the usual case, costs one
    :func:`~repro.core.conflicts.conflicting_pairs` sweep: the resolver,
    whose construction builds per-sensor interval lists that only a
    wait would use, is built only when that sweep finds a conflict (its
    own first conflict set is the same sweep's).

    Returns:
        The number of waits inserted.

    Raises:
        RuntimeError: if conflicts remain after ``max_rounds`` rounds.
    """
    if not conflicting_pairs(schedule):
        return 0
    resolver = ConflictResolver(schedule)
    inserted = 0
    for _ in range(max_rounds):
        conflicts = resolver.conflicts()
        if not conflicts:
            return inserted
        # Deterministic order: fix the earliest-starting conflict first.
        def start_of(pair):
            u, v, _ = pair
            su = schedule.stop_interval(u)[0]
            sv = schedule.stop_interval(v)[0]
            return (max(su, sv), min(u, v))

        u, v, _ = min(conflicts, key=start_of)
        su, fu = schedule.stop_interval(u)
        sv, fv = schedule.stop_interval(v)
        # Delay the later-starting stop past the earlier one's finish.
        if su <= sv:
            earlier, later = u, v
            needed = fu - sv
        else:
            earlier, later = v, u
            needed = fv - su
        resolver.delay(later, needed + OVERLAP_EPS)
        inserted += 1
    if resolver.has_conflicts():
        raise RuntimeError(
            f"conflict resolution did not converge in {max_rounds} rounds"
        )
    return inserted
