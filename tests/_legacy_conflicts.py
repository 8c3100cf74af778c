"""Retired conflict-detection implementations, kept as test oracles.

These are the three pre-engine detectors verbatim (modulo the shared
epsilon constant): the all-pairs O(n²) scan that
``repro.core.validation`` used, the start-time sweep that
``repro.core.repair`` used, and the full-rescan resolution loops built
on them. ``tests/test_core_conflicts.py`` pins the conflict engine
(:mod:`repro.core.conflicts`) against them — identical conflict sets,
identical wait insertions, byte-identical schedules — on random
schedules and on the adversarial ring instance (``ring_schedule``).

They exist *only* as references; production code must never import
this module.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.conflicts import OVERLAP_EPS
from repro.core.schedule import ChargingSchedule


def _interval_overlap(
    a: Tuple[float, float], b: Tuple[float, float]
) -> float:
    """Length of the intersection of two closed intervals."""
    return min(a[1], b[1]) - max(a[0], b[0])


def all_pairs_conflicting_pairs(
    schedule: ChargingSchedule,
) -> List[Tuple[int, int, float]]:
    """The retired ``validation.conflicting_pairs``: all-pairs O(n²)."""
    stops = schedule.scheduled_stops()
    out: List[Tuple[int, int, float]] = []
    for i, u in enumerate(stops):
        for v in stops[i + 1:]:
            if schedule.tour_of[u] == schedule.tour_of[v]:
                continue
            if not (schedule.coverage[u] & schedule.coverage[v]):
                continue
            overlap = _interval_overlap(
                schedule.stop_interval(u), schedule.stop_interval(v)
            )
            if overlap > OVERLAP_EPS:
                out.append((u, v, overlap))
    return out


def legacy_resolve_conflicts(
    schedule: ChargingSchedule, max_rounds: int = 1000
) -> int:
    """The retired ``validation.resolve_conflicts``: one full all-pairs
    rescan per inserted wait."""
    inserted = 0
    for _ in range(max_rounds):
        conflicts = all_pairs_conflicting_pairs(schedule)
        if not conflicts:
            return inserted

        def start_of(pair):
            u, v, _ = pair
            su = schedule.stop_interval(u)[0]
            sv = schedule.stop_interval(v)[0]
            return (max(su, sv), min(u, v))

        u, v, _ = min(conflicts, key=start_of)
        su, fu = schedule.stop_interval(u)
        sv, fv = schedule.stop_interval(v)
        if su <= sv:
            later, needed = v, fu - sv
        else:
            later, needed = u, fv - su
        schedule.add_wait(later, needed + OVERLAP_EPS)
        inserted += 1
    if all_pairs_conflicting_pairs(schedule):
        raise RuntimeError(
            f"conflict resolution did not converge in {max_rounds} rounds"
        )
    return inserted


def legacy_cross_tour_conflicts(
    schedule: ChargingSchedule, skip_tour: int
) -> List[Tuple[int, int, float]]:
    """The retired ``repair._cross_tour_conflicts``: a global (not
    per-sensor) start-time sweep with its own active-window pruning."""
    entries = []
    for node in schedule.scheduled_stops():
        if schedule.tour_of[node] == skip_tour:
            continue
        start, finish = schedule.stop_interval(node)
        entries.append((start, finish, node))
    entries.sort(key=lambda e: (e[0], e[2]))
    out: List[Tuple[int, int, float]] = []
    active: List[Tuple[float, float, int]] = []
    for start, finish, node in entries:
        active = [a for a in active if a[1] - start > OVERLAP_EPS]
        for a_start, a_finish, a_node in active:
            if schedule.tour_of[a_node] == schedule.tour_of[node]:
                continue
            if not (schedule.coverage[a_node] & schedule.coverage[node]):
                continue
            overlap = min(a_finish, finish) - max(a_start, start)
            if overlap > OVERLAP_EPS:
                out.append((a_node, node, overlap))
        active.append((start, finish, node))
    return out


def brute_force_minimum_slack(schedule: ChargingSchedule) -> float:
    """All-pairs reference for ``minimum_pairwise_slack``: the smallest
    ``max(s_v - f_u, s_u - f_v)`` over cross-tour shared-disk pairs.

    Independent of the engine's per-sensor sweep (which began life in
    ``sim.robustness``), so it is the stronger oracle.
    """
    best = float("inf")
    stops = schedule.scheduled_stops()
    for i, u in enumerate(stops):
        su, fu = schedule.stop_interval(u)
        for v in stops[i + 1:]:
            if schedule.tour_of[u] == schedule.tour_of[v]:
                continue
            if not (schedule.coverage[u] & schedule.coverage[v]):
                continue
            sv, fv = schedule.stop_interval(v)
            best = min(best, max(sv - fu, su - fv))
    return best


def legacy_resolve_conflicts_after(
    schedule: ChargingSchedule,
    frozen_before_s: float,
    skip_tour: int = -1,
    max_rounds: int = 10_000,
) -> int:
    """The retired ``repair.resolve_conflicts_after``: one full sweep
    rescan per inserted wait."""
    inserted = 0
    for _ in range(max_rounds):
        conflicts = legacy_cross_tour_conflicts(schedule, skip_tour)
        if not conflicts:
            return inserted

        def sort_key(pair: Tuple[int, int, float]):
            u, v, _ = pair
            su = schedule.stop_interval(u)[0]
            sv = schedule.stop_interval(v)[0]
            return (max(su, sv), min(u, v))

        u, v, _ = min(conflicts, key=sort_key)
        su, fu = schedule.stop_interval(u)
        sv, fv = schedule.stop_interval(v)
        # Closed boundary, matching the repaired engine: a stop that
        # started exactly at the frozen instant is already active.
        u_frozen = su <= frozen_before_s
        v_frozen = sv <= frozen_before_s
        if u_frozen and v_frozen:
            raise RuntimeError(
                f"stops {u} and {v} both started at or before "
                f"{frozen_before_s:.1f}s and overlap; the pre-fault "
                f"plan was not feasible"
            )
        if u_frozen:
            later, needed = v, fu - sv
        elif v_frozen:
            later, needed = u, fv - su
        elif su <= sv:
            later, needed = v, fu - sv
        else:
            later, needed = u, fv - su
        schedule.add_wait(later, needed + OVERLAP_EPS)
        inserted += 1
    raise RuntimeError(
        f"conflict resolution did not converge in {max_rounds} rounds"
    )
