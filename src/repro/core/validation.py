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
raising, so tests, benchmarks and the planners' reports can all consume
the same report. It is the independent check: it runs its own
:func:`~repro.core.conflicts.conflicting_pairs` sweep and never reads
the state of :func:`repro.core.conflicts.resolve_conflicts`, the loop
that repairs overlaps by inserting waits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.conflicts import conflicting_pairs
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

