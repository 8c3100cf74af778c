"""The conflict engine — one sweep for the no-simultaneous-charging
constraint.

The paper's hard constraint (Definition 1, condition 3) — no sensor
may sit inside two MCVs' active charging disks during time-overlapping
charging intervals — is checked by one sweep,
:func:`interval_conflicts`, over ``(key, tour, start_s, finish_s)``
interval records plus a coverage map. It serves both timelines:

* **planned** — :func:`conflicting_pairs` feeds it a schedule's stops
  in tour-position order; the validator
  (:func:`repro.core.validation.validate_schedule`),
  :class:`ConflictResolver` and the wait-insertion loop
  :func:`resolve_conflicts` build on it;
* **realized** — the fault executor
  (:func:`repro.sim.faults.executor.execute_with_faults`) and the
  noise replay (:func:`repro.sim.robustness.perturbed_execution`)
  feed it the replayed :class:`~repro.sim.faults.timeline.ExecutedStop`
  records, and the online simulator's end-of-run audit
  (:class:`repro.sim.online.OnlineMonitoringSimulation`) feeds it
  every settled stop keyed by its index, one tour per record, so each
  record is checked against every other.

**Candidate generation.** Two stops can conflict only when their disks
intersect, i.e. when they share at least one covered sensor. The
engine therefore inverts the coverage relation into per-sensor *stop
groups* and only ever compares stops inside a group — never all
pairs. Each group is swept in charging start order with an active
window pruned by finish time, so the cost is O(Σ_s d_s log d_s) over
the disk occupancies ``d_s`` (how many stops cover sensor ``s``)
instead of O(n²) over all stops. For the paper's instances the groups
are tiny (an MIS keeps disks nearly disjoint), so detection is
effectively linear.

**One epsilon rule.** All intervals are closed, ``[start, finish]``,
and a pair conflicts exactly when its overlap length exceeds
:data:`OVERLAP_EPS`; an overlap of at most the epsilon is *touching*
and legal. The active-window pruning (``finish - start > eps``) is the
same rule — a pruned interval could contribute at most a touching
overlap — so sweep and all-pairs semantics coincide by construction.
The property tests in ``tests/test_core_conflicts.py`` pin the sweep
against the retired all-pairs scan, the retired repair sweep and the
retired realized-timeline sweep.

**One wait-insertion loop.** :func:`resolve_conflicts` is the only
code that inserts waits: Appro's step 7, GreedyCover and Metaheuristic
call it at plan time, the breakdown repair
(:func:`repro.core.repair.repair_schedule`, skipping the failed tour)
and the online dispatch frames
(:class:`repro.sim.online.OnlineMonitoringSimulation`) call it
mid-round with a frozen boundary. It delays one stop per round.
Delaying a stop only moves intervals on *its own tour* (the delayed
stop and everything downstream), so :class:`ConflictResolver`
re-checks only those stops against their per-sensor groups instead of
rescanning the whole schedule — O(waits · Σ_s d_s log d_s) instead of
the retired O(waits · n²) full rescans, with byte-identical schedules
(same pair picked per round, same wait lengths; see the parity tests).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.schedule import ChargingSchedule

#: The single touching-interval tolerance: a closed-interval overlap of
#: at most this many seconds is "touching" and never a conflict.
OVERLAP_EPS = 1e-9

#: The wait-insertion loop's one livelock guard: :func:`resolve_conflicts`
#: raises when conflicts remain after this many rounds (the adversarial
#: ring instances of the tests need 33 and 63).
MAX_WAIT_ROUNDS = 10_000

#: ``(u, v, overlap_seconds)`` with ``u``'s interval listed before
#: ``v``'s (tour-position order for a schedule's stops).
ConflictPair = Tuple[int, int, float]

#: ``(key, tour, start_s, finish_s)`` — one charging interval, planned
#: or realized; the sweep's input record.
IntervalRecord = Tuple[int, int, float, float]


def stop_groups(
    schedule: ChargingSchedule, skip_tour: Optional[int] = None
) -> Dict[int, List[int]]:
    """Invert the coverage relation: sensor -> scheduled stops whose
    disk contains it.

    Only stops currently on a tour contribute; ``skip_tour`` excludes
    one tour entirely (the repair engine ignores the failed tour).
    Sensors covered by fewer than two stops can never witness a
    conflict, but they are kept — callers that only need conflict
    candidates filter on group size.
    """
    groups: Dict[int, List[int]] = {}
    for node in schedule.scheduled_stops():
        if skip_tour is not None and schedule.tour_of[node] == skip_tour:
            continue
        for sensor in schedule.coverage[node]:
            groups.setdefault(sensor, []).append(node)
    return groups


def _groups_cover_stops(
    groups: Mapping[int, Sequence[int]],
    schedule: ChargingSchedule,
    stops: Sequence[int],
) -> bool:
    """Whether a caller-supplied (possibly wider) group index mentions
    every scheduled stop that has a non-empty disk."""
    mentioned = set()
    for members in groups.values():
        mentioned.update(members)
    return all(
        node in mentioned for node in stops if schedule.coverage[node]
    )


def interval_conflicts(
    records: Sequence[IntervalRecord],
    coverage: Mapping[int, Iterable[int]],
    *,
    groups: Optional[Mapping[int, Sequence[int]]] = None,
    eps: float = OVERLAP_EPS,
) -> List[ConflictPair]:
    """All record pairs violating the no-overlap constraint.

    The engine's one sweep, shared by planned and realized timelines.
    Two records conflict when they sit on different tours, their disks
    (``coverage[key]``) share a sensor, and their closed charging
    intervals overlap by more than ``eps``.

    Returns:
        ``(u, v, overlap_seconds)`` triples of record keys, ``u``'s
        record listed before ``v``'s, sorted by record position.

    Args:
        records: ``(key, tour, start_s, finish_s)`` intervals, keys
            unique; list order is the output order.
        coverage: key -> the sensors inside that record's disk.
        groups: optional pre-built sensor -> key index used in place
            of inverting ``coverage``; it may mention keys that have
            no record (they are skipped) but must mention every record
            whose disk is non-empty.
        eps: touching tolerance; the default is the project-wide rule.
    """
    if groups is None:
        by_sensor: Dict[int, List[int]] = {}
        for i, record in enumerate(records):
            for sensor in coverage[record[0]]:
                by_sensor.setdefault(sensor, []).append(i)
        index_groups: Iterable[List[int]] = by_sensor.values()
    else:
        pos = {record[0]: i for i, record in enumerate(records)}
        index_groups = (
            [pos[key] for key in members if key in pos]
            for members in groups.values()
        )

    found: Dict[Tuple[int, int], float] = {}
    for members in index_groups:
        if len(members) < 2:
            continue
        active: List[Tuple[float, float, int, int]] = []
        for start, i in sorted((records[m][2], m) for m in members):
            _, tour, _, finish = records[i]
            active = [a for a in active if a[1] - start > eps]
            for a_start, a_finish, a_tour, a in active:
                if a_tour == tour:
                    continue
                overlap = min(a_finish, finish) - max(a_start, start)
                if overlap > eps:
                    found[(a, i) if a < i else (i, a)] = overlap
            active.append((start, finish, tour, i))
    return [
        (records[i][0], records[j][0], found[(i, j)])
        for i, j in sorted(found)
    ]


def conflicting_pairs(
    schedule: ChargingSchedule,
    *,
    skip_tour: Optional[int] = None,
    groups: Optional[Mapping[int, Sequence[int]]] = None,
    eps: float = OVERLAP_EPS,
) -> List[ConflictPair]:
    """All cross-tour stop pairs of a schedule's *planned* timeline
    violating the no-overlap constraint.

    Feeds :func:`interval_conflicts` each scheduled stop's interval in
    tour-position order, so ``u`` precedes ``v`` in tour order and the
    list is sorted the same way, matching the retired all-pairs scan
    exactly.

    Args:
        schedule: the schedule to check.
        skip_tour: ignore every stop on this tour (repair: the failed
            vehicle's stops are gone or in the feasible past).
        groups: optional pre-built sensor -> candidate-stop index (for
            example :meth:`repro.core.context.PlanningContext.
            sensor_stop_groups`); it may mention unscheduled candidates
            (they are filtered out) but must mention every scheduled
            stop, else it is ignored and rebuilt from the schedule.
        eps: touching tolerance; the default is the project-wide rule.
    """
    records = [
        (node, k, *schedule.stop_interval(node))
        for k, tour in enumerate(schedule.tours)
        if k != skip_tour
        for node in tour
    ]
    if groups is not None and not _groups_cover_stops(
        groups, schedule, [record[0] for record in records]
    ):
        groups = None
    return interval_conflicts(
        records, schedule.coverage, groups=groups, eps=eps
    )


def minimum_pairwise_slack(schedule: ChargingSchedule) -> float:
    """Smallest time gap between any two conflicting-disk stops on
    different tours in the *planned* timeline.

    ``inf`` when no cross-tour pair shares a disk. Negative slack would
    mean a planned violation (:func:`conflicting_pairs` reports those
    directly).

    Candidate pairs come from the same per-sensor :func:`stop_groups`
    as conflict detection, and each group is swept in start order:
    still-open intervals are compared directly, and for closed
    intervals only the per-tour maximum finish matters (the gap
    ``start - finish`` is minimised by the latest finish). Cost is
    O(Σ_s d_s log d_s) over disk occupancies ``d_s``.
    """
    best = float("inf")
    by_sensor = stop_groups(schedule)
    for sensor in sorted(by_sensor):
        group = by_sensor[sensor]
        if len(group) < 2:
            continue
        entries = sorted(
            (
                (*schedule.stop_interval(u), schedule.tour_of[u], u)
                for u in group
            ),
            key=lambda e: (e[0], e[3]),
        )
        #: tour -> latest finish among already-closed intervals.
        closed_best: Dict[int, float] = {}
        active: List[Tuple[float, float, int, int]] = []
        for su, fu, tour, u in entries:
            still_open: List[Tuple[float, float, int, int]] = []
            for sa, fa, ta, a in active:
                if fa <= su:
                    closed_best[ta] = max(
                        closed_best.get(ta, float("-inf")), fa
                    )
                else:
                    still_open.append((sa, fa, ta, a))
            active = still_open
            for t, f in closed_best.items():
                if t != tour:
                    best = min(best, su - f)
            for sa, fa, ta, a in active:
                if ta != tour:
                    best = min(best, max(su - fa, sa - fu))
            active.append((su, fu, tour, u))
    return best


class ConflictResolver:
    """Incrementally-maintained conflict set under wait insertion.

    Built once per resolution run: the constructor performs one full
    per-sensor sweep, after which :meth:`delay` applies a wait and
    re-checks *only* the delayed tour's affected suffix (the delayed
    stop and everything downstream of it — the only intervals a wait
    can move) against the per-sensor groups. Conflicts between two
    unaffected stops are untouched; conflicts involving an affected
    stop are recomputed from the fresh intervals.

    Each per-sensor group is kept as a *sorted interval list* — entries
    keyed ``(start_s, stop)`` over the same dense stop index the
    resolver's pair ordering uses — maintained by ``bisect`` as waits
    move intervals. A moved stop then scans its groups in start order
    and stops at the first entry with ``finish - start <= eps``: every
    later entry starts even later and can overlap at most a touching
    amount (floats included — IEEE subtraction is monotone), so the
    re-check visits only genuine overlap candidates instead of whole
    groups, and nothing is re-sorted per wait.

    The maintained set is therefore identical, round for round, to
    re-running :func:`conflicting_pairs` from scratch — the parity
    tests pin this — at a per-wait cost of
    O(suffix · log d + candidates) instead of O(suffix · d) group
    scans (d = disk occupancy).

    Args:
        schedule: the schedule to resolve (mutated via
            :meth:`~repro.core.schedule.ChargingSchedule.add_wait`).
        skip_tour: ignore every stop on this tour (repair).
        eps: touching tolerance.
        pairs: the schedule's current :func:`conflicting_pairs` under
            the same ``skip_tour`` and ``eps``, when the caller has
            already swept; the constructor's own sweep is skipped.

    Note:
        The resolver assumes stops are neither added nor removed while
        it is alive — true of every resolution loop, which only ever
        inserts waits.
    """

    def __init__(
        self,
        schedule: ChargingSchedule,
        *,
        skip_tour: Optional[int] = None,
        eps: float = OVERLAP_EPS,
        pairs: Optional[Sequence[ConflictPair]] = None,
    ):
        self.schedule = schedule
        self.skip_tour = skip_tour
        self.eps = eps
        self._pos: Dict[int, int] = {
            node: i
            for i, node in enumerate(
                n
                for n in schedule.scheduled_stops()
                if skip_tour is None or schedule.tour_of[n] != skip_tour
            )
        }
        self._groups = stop_groups(schedule, skip_tour)
        #: stop -> its current charging interval; the removal key for
        #: the sorted lists below (and a fresh-read shortcut: intervals
        #: of unaffected stops never move).
        self._intervals: Dict[int, Tuple[float, float]] = {
            node: schedule.stop_interval(node)
            for members in self._groups.values()
            for node in members
        }
        #: sensor -> interval entries sorted by ``(start_s, stop)``.
        self._by_sensor: Dict[int, List[Tuple[float, int]]] = {
            sensor: sorted(
                (self._intervals[node][0], node) for node in members
            )
            for sensor, members in self._groups.items()
        }
        if pairs is None:
            pairs = conflicting_pairs(
                schedule, skip_tour=skip_tour, groups=self._groups, eps=eps
            )
        self._pairs: Dict[Tuple[int, int], float] = {
            (u, v): overlap for u, v, overlap in pairs
        }

    def has_conflicts(self) -> bool:
        return bool(self._pairs)

    def conflicts(self) -> List[ConflictPair]:
        """The current conflict set, in tour order (matching
        :func:`conflicting_pairs` on the current schedule state)."""
        pos = self._pos
        return [
            (u, v, self._pairs[(u, v)])
            for u, v in sorted(
                self._pairs, key=lambda p: (pos[p[0]], pos[p[1]])
            )
        ]

    def delay(self, node: int, extra_wait_s: float) -> None:
        """Insert a wait at ``node`` and re-check the affected suffix.

        Applies :meth:`~repro.core.schedule.ChargingSchedule.add_wait`
        (which recomputes the tour's downstream finish times), drops
        every maintained pair touching an affected stop, and
        re-sweeps each affected stop against its per-sensor groups.
        """
        schedule = self.schedule
        schedule.add_wait(node, extra_wait_s)
        tour_index = schedule.tour_of[node]
        tour = schedule.tours[tour_index]
        suffix = tour[tour.index(node):]
        affected = set(suffix)

        self._pairs = {
            pair: overlap
            for pair, overlap in self._pairs.items()
            if pair[0] not in affected and pair[1] not in affected
        }

        # Re-key the moved stops' entries in the sorted interval lists
        # before scanning, so every start-order prune below sees
        # current keys (an affected stop may be a candidate of another
        # affected stop's scan).
        for moved in suffix:
            old = self._intervals.get(moved)
            if old is None:  # empty-disk or skip_tour stops: no entries
                continue
            fresh = schedule.stop_interval(moved)
            if fresh == old:
                continue
            for sensor in schedule.coverage[moved]:
                entries = self._by_sensor[sensor]
                at = bisect.bisect_left(entries, (old[0], moved))
                del entries[at]
                bisect.insort(entries, (fresh[0], moved))
            self._intervals[moved] = fresh

        pos = self._pos
        eps = self.eps
        tour_of = schedule.tour_of
        intervals = self._intervals
        for moved in sorted(affected):
            if moved not in pos:  # skip_tour stops are never re-checked
                continue
            m_start, m_finish = schedule.stop_interval(moved)
            for sensor in schedule.coverage[moved]:
                for o_start, other in self._by_sensor.get(sensor, ()):
                    if m_finish - o_start <= eps:
                        # Sorted by start: every later entry overlaps
                        # at most a touching amount.
                        break
                    if other == moved or tour_of[other] == tour_index:
                        continue
                    o_finish = intervals[other][1]
                    overlap = min(m_finish, o_finish) - max(
                        m_start, o_start
                    )
                    if overlap > eps:
                        key = (
                            (other, moved)
                            if pos[other] < pos[moved]
                            else (moved, other)
                        )
                        self._pairs[key] = overlap


def resolve_conflicts(
    schedule: ChargingSchedule,
    *,
    frozen_before_s: Optional[float] = None,
    skip_tour: Optional[int] = None,
) -> int:
    """Restore the no-simultaneous-charging constraint by inserting
    waits; the one wait-insertion loop.

    One unfiltered :func:`conflicting_pairs` sweep gates the loop: a
    conflict-free schedule, the usual case, returns 0 without building
    the :class:`ConflictResolver` (whose per-sensor interval lists only
    a wait would use); otherwise the resolver starts from that sweep's
    pairs instead of sweeping again. Then each round takes the conflicting pair
    with the smallest ``(later start, smaller node)`` and pushes its
    later-starting stop past the other's finish; on equal starts the
    pair's position-later stop (tour order, as :func:`conflicting_pairs`
    orients it) waits. Waits only push intervals later, so every
    round strictly orders one pair.

    Args:
        schedule: the schedule to repair, mutated in place.
        frozen_before_s: the realized-past boundary of a mid-round
            repair. A stop starting at or before it is already
            charging under the closed-interval rule and never moves
            (it always starts before any delayable stop, so the
            later-start rule never picks it); a conflict between two
            such stops cannot be repaired and raises.
        skip_tour: ignore every stop on this tour (the failed vehicle
            of a breakdown repair).

    Returns:
        The number of waits inserted.

    Raises:
        RuntimeError: when two frozen stops conflict (the plan that
            executed them was not feasible), or when conflicts remain
            after :data:`MAX_WAIT_ROUNDS` rounds.
    """
    pairs = conflicting_pairs(schedule, skip_tour=skip_tour)
    if not pairs:
        return 0

    def start_of(pair: ConflictPair) -> Tuple[float, int]:
        u, v, _ = pair
        su = schedule.stop_interval(u)[0]
        sv = schedule.stop_interval(v)[0]
        return (max(su, sv), min(u, v))

    resolver = ConflictResolver(schedule, skip_tour=skip_tour, pairs=pairs)
    inserted = 0
    for _ in range(MAX_WAIT_ROUNDS):
        conflicts = resolver.conflicts()
        if not conflicts:
            return inserted
        u, v, _ = min(conflicts, key=start_of)
        su, fu = schedule.stop_interval(u)
        sv, fv = schedule.stop_interval(v)
        if frozen_before_s is not None and max(su, sv) <= frozen_before_s:
            (_, first), (_, second) = sorted(((su, u), (sv, v)))
            raise RuntimeError(
                f"stops {first} and {second} both started at or before "
                f"{frozen_before_s:.1f}s and overlap; the pre-fault "
                f"plan was not feasible"
            )
        if su <= sv:
            later, needed = v, fu - sv
        else:
            later, needed = u, fv - su
        resolver.delay(later, needed + OVERLAP_EPS)
        inserted += 1
    if resolver.has_conflicts():
        raise RuntimeError(
            f"conflict resolution did not converge in {MAX_WAIT_ROUNDS} "
            f"rounds"
        )
    return inserted


__all__ = [
    "MAX_WAIT_ROUNDS",
    "OVERLAP_EPS",
    "ConflictPair",
    "ConflictResolver",
    "IntervalRecord",
    "conflicting_pairs",
    "interval_conflicts",
    "minimum_pairwise_slack",
    "resolve_conflicts",
    "stop_groups",
]
