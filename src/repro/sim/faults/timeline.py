"""Realized-timeline replay shared by fault and noise trials.

:func:`replay_legs` walks a
:class:`~repro.core.schedule.ChargingSchedule` tour by tour, scaling
every travel leg and charging duration by a factor it draws per leg,
and produces realized :class:`ExecutedStop` intervals plus the realized
longest delay. :func:`replay_with_factors` runs it with deterministic
fault factors (and an optional single-stop pause);
:func:`repro.sim.robustness.perturbed_execution` runs it with noise
draws. An :class:`ExecutedStop` is an interval record of the conflict
engine, so realized timelines are checked by
:func:`repro.core.conflicts.interval_conflicts` directly.
"""

from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.core.schedule import ChargingSchedule


class ExecutedStop(NamedTuple):
    """One stop's realized timing under a replay — a
    ``(key, tour, start_s, finish_s)`` interval record."""

    node: int
    tour: int
    start_s: float
    finish_s: float


def replay_legs(
    schedule: ChargingSchedule,
    travel_factor: Callable[[], float],
    charge_factor: Callable[[], float],
    paused_node: Optional[int] = None,
    pause_s: float = 0.0,
) -> Tuple[List[ExecutedStop], float]:
    """Replay a schedule, drawing one factor per leg.

    Per stop, ``travel_factor()`` scales the leg driven to it and then
    ``charge_factor()`` scales its charging duration; per non-empty
    tour, a last ``travel_factor()`` scales the return leg. Scheduled
    waits are honoured as *earliest start times* relative to the
    planned timeline (a real controller will not switch the charger on
    before its scheduled start). The charge at ``paused_node``
    additionally pauses for ``pause_s`` seconds.

    Returns:
        ``(stops, realized_longest_delay_s)`` where the stops are in
        tour-position order and the delay includes each tour's return
        leg.
    """
    executed: List[ExecutedStop] = []
    longest = 0.0
    for k, tour in enumerate(schedule.tours):
        clock = 0.0
        prev: Optional[int] = None
        for node in tour:
            clock += schedule.travel_time(prev, node) * travel_factor()
            planned_start = schedule.arrival[node] + schedule.wait[node]
            start = max(clock, planned_start)
            duration = schedule.duration[node] * charge_factor()
            if node == paused_node:
                duration += pause_s
            finish = start + duration
            executed.append(ExecutedStop(node, k, start, finish))
            clock = finish
            prev = node
        if tour:
            back = schedule.travel_time(tour[-1], None) * travel_factor()
            longest = max(longest, clock + back)
    return executed, longest


def replay_with_factors(
    schedule: ChargingSchedule,
    travel_factor: float = 1.0,
    charge_factor: float = 1.0,
    pause_rank: Optional[float] = None,
    pause_s: float = 0.0,
) -> Tuple[List[ExecutedStop], float]:
    """Replay a schedule with deterministic fault factors.

    Every travel leg is scaled by ``travel_factor`` and every charging
    duration by ``charge_factor`` (see :func:`replay_legs`).
    ``pause_rank`` in ``[0, 1)`` selects one stop — by rank in the
    deterministic (tour, position) stop order — whose charge
    additionally pauses for ``pause_s`` seconds.

    Returns:
        ``(stops, realized_longest_delay_s)`` where the delay includes
        each tour's return leg.
    """
    if travel_factor <= 0.0 or charge_factor <= 0.0:
        raise ValueError(
            f"factors must be positive, got travel={travel_factor} "
            f"charge={charge_factor}"
        )
    ordered = schedule.scheduled_stops()
    paused_node: Optional[int] = None
    if pause_rank is not None and ordered:
        if not 0.0 <= pause_rank < 1.0:
            raise ValueError(
                f"pause_rank must be in [0, 1), got {pause_rank}"
            )
        paused_node = ordered[int(pause_rank * len(ordered))]
    return replay_legs(
        schedule,
        lambda: travel_factor,
        lambda: charge_factor,
        paused_node,
        pause_s,
    )


__all__ = [
    "ExecutedStop",
    "replay_legs",
    "replay_with_factors",
]
