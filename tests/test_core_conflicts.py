"""Unit, property and parity tests for :mod:`repro.core.conflicts`.

The conflict engine replaced three separately-written detectors (the
validator's all-pairs scan, the repair engine's global sweep, the
robustness per-sensor sweep). These tests pin the unification:

* **conflict-set parity** — on 100 seeded random schedules the engine,
  the retired all-pairs scan and the retired repair sweep report
  *identical* conflict sets (the epsilon-drift bugfix: one closed-
  interval ``overlap > eps`` rule for everyone);
* **resolution parity** — the one wait-insertion loop
  :func:`resolve_conflicts` over the incremental
  :class:`ConflictResolver` produces byte-identical schedules (same
  waits, same pair order, same ``longest_delay``) to the retired
  full-rescan loops: the plan-time loop without a frozen boundary, the
  repair loop with one and a skipped tour, on random schedules, on
  the adversarial ring instance and on lattice schedules with planted
  equal starts (where the one loop's tie-break is pinned);
* **planner parity** — end-to-end ``Appro`` / ``GreedyCover`` runs
  equal a reconstruction that resolves conflicts with the retired
  all-pairs loop.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import conflicts
from repro.core.conflicts import (
    OVERLAP_EPS,
    ConflictResolver,
    conflicting_pairs,
    interval_conflicts,
    minimum_pairwise_slack,
    resolve_conflicts,
    stop_groups,
)
from repro.core.schedule import ChargingSchedule
from repro.energy.charging import ChargerSpec
from repro.geometry.point import Point
from repro.graphs.coverage import coverage_sets
from repro.sim.faults.timeline import ExecutedStop

from tests._legacy_conflicts import (
    all_pairs_conflicting_pairs,
    brute_force_minimum_slack,
    legacy_cross_tour_conflicts,
    legacy_resolve_conflicts,
    legacy_resolve_conflicts_after,
    overlapping_cross_pairs,
)

NUM_SEEDS = 100


def random_schedule(
    seed: int,
    num_sensors: int = 40,
    num_stops: int = 30,
    num_tours: int = 3,
    field_m: float = 8.0,
) -> ChargingSchedule:
    """A small dense random schedule with plenty of disk overlap.

    Stops are a random subset of sensor locations appended to random
    tours in random order — deliberately *not* conflict-free (no MIS,
    no conflict graph), so the detectors have real work to do.
    """
    rng = np.random.default_rng(seed)
    spec = ChargerSpec()
    ids = list(range(num_sensors))
    positions = {
        i: Point(*(float(c) for c in rng.uniform(0, field_m, size=2)))
        for i in ids
    }
    coverage = coverage_sets(
        ids, positions, spec.charge_radius_m, targets=ids
    )
    charge_times = {
        i: float(rng.uniform(100.0, 600.0)) for i in ids
    }
    schedule = ChargingSchedule(
        depot=Point(0.0, 0.0),
        positions=positions,
        coverage=coverage,
        charge_times=charge_times,
        charger=spec,
        num_tours=num_tours,
    )
    stops = list(rng.permutation(ids))[:num_stops]
    for node in stops:
        schedule.append_stop(int(rng.integers(num_tours)), int(node))
    return schedule


def ring_schedule(num_stops: int, num_tours: int = 4) -> ChargingSchedule:
    """The adversarial instance: ``num_stops / num_tours`` stop rings,
    one stop per tour per ring, tours visiting the rings in the same
    order.

    Rings sit 10 m apart (no cross-ring coverage), but within a ring
    every stop covers the shared central sensor, and the identical
    visiting order keeps the tours time-synchronised — each ring is a
    fresh all-tours conflict knot, the worst case for a full-rescan
    resolver.
    """
    rings = num_stops // num_tours
    stops = list(range(rings * num_tours))
    spec = ChargerSpec()
    positions = {}
    charge_times = {}
    for c in range(rings):
        cx = 10.0 * c
        for t in range(num_tours):
            # A radius-2.0 ring: every stop is within the charge radius
            # (2.7 m) of the shared sensor, but the ring chord (2.83 m)
            # keeps each stop's own sensor private.
            angle = 2.0 * math.pi * t / num_tours
            positions[c * num_tours + t] = Point(
                cx + 2.0 * math.cos(angle), 2.0 * math.sin(angle)
            )
            # Equal within a ring and growing across rings, so every
            # ring re-overlaps and needs its own round of waits.
            charge_times[c * num_tours + t] = 200.0 + 2.4 * c
        positions[num_stops + c] = Point(cx, 0.0)
        charge_times[num_stops + c] = 150.0
    coverage = coverage_sets(
        stops,
        positions,
        spec.charge_radius_m,
        targets=sorted(positions),
    )
    schedule = ChargingSchedule(
        depot=Point(0.0, 0.0),
        positions=positions,
        coverage=coverage,
        charge_times=charge_times,
        charger=spec,
        num_tours=num_tours,
    )
    for node in stops:
        schedule.append_stop(node % num_tours, node)
    return schedule


def random_timeline(seed: int):
    """A random realized timeline ``(stops, coverage)`` with planted
    edge cases: starts on a coarse grid (equal starts), zero-length
    stops, stops starting exactly at (or within eps of) another's
    finish, and disks of up to four sensors drawn from a small pool."""
    rng = np.random.default_rng(seed)
    num_stops = int(rng.integers(2, 25))
    num_tours = int(rng.integers(1, 5))
    coverage = {
        node: frozenset(
            int(x)
            for x in rng.choice(8, size=int(rng.integers(0, 5)),
                                replace=False)
        )
        for node in range(num_stops)
    }
    stops = []
    for node in range(num_stops):
        kind = int(rng.integers(0, 4))
        if kind == 0 or not stops:
            start = float(rng.integers(0, 12)) * 5.0
        else:
            # Start at an earlier stop's finish: exactly, eps/2 inside
            # (touching) or 2 eps inside (a conflict).
            anchor = stops[int(rng.integers(0, len(stops)))]
            shift = (0.0, OVERLAP_EPS / 2, 2 * OVERLAP_EPS)[kind - 1]
            start = anchor.finish_s - shift
        length = (0.0, 5.0, float(rng.uniform(0.0, 30.0)))[
            int(rng.integers(0, 3))
        ]
        stops.append(
            ExecutedStop(node, int(rng.integers(0, num_tours)), start,
                         start + length)
        )
    return stops, coverage


def pair_set(pairs):
    """Orientation-independent view of a conflict list."""
    return {(frozenset((u, v)), overlap) for u, v, overlap in pairs}


def schedule_fingerprint(schedule: ChargingSchedule):
    """Everything that defines the schedule byte-for-byte."""
    return (
        [list(t) for t in schedule.tours],
        dict(schedule.wait),
        dict(schedule.arrival),
        dict(schedule.finish),
        dict(schedule.duration),
        schedule.longest_delay(),
    )


class TestConflictSetParity:
    """Satellite bugfix: one epsilon rule across all detectors."""

    def test_engine_matches_all_pairs_scan_100_seeds(self):
        total = 0
        for seed in range(NUM_SEEDS):
            schedule = random_schedule(seed)
            engine = conflicting_pairs(schedule)
            legacy = all_pairs_conflicting_pairs(schedule)
            assert engine == legacy, f"seed {seed}"
            total += len(engine)
        # The workload must actually exercise the detectors.
        assert total > 2 * NUM_SEEDS

    def test_engine_matches_repair_sweep_100_seeds(self):
        """Repair and validation report identical conflict sets — the
        epsilon/reporting drift between the two retired copies is
        gone."""
        for seed in range(NUM_SEEDS):
            schedule = random_schedule(seed)
            engine = pair_set(conflicting_pairs(schedule))
            sweep = pair_set(
                legacy_cross_tour_conflicts(schedule, skip_tour=-1)
            )
            assert engine == sweep, f"seed {seed}"

    def test_skip_tour_matches_legacy_sweep(self):
        for seed in range(0, NUM_SEEDS, 5):
            schedule = random_schedule(seed)
            skip = seed % schedule.num_tours
            engine = pair_set(
                conflicting_pairs(schedule, skip_tour=skip)
            )
            sweep = pair_set(
                legacy_cross_tour_conflicts(schedule, skip_tour=skip)
            )
            assert engine == sweep, f"seed {seed}"

    def test_minimum_pairwise_slack_matches_brute_force(self):
        for seed in range(NUM_SEEDS):
            schedule = random_schedule(seed)
            assert minimum_pairwise_slack(schedule) == (
                brute_force_minimum_slack(schedule)
            ), f"seed {seed}"


class TestRealizedTimelineParity:
    """The engine's realized-timeline check equals the retired
    start-time sweep of ``sim.faults.timeline``."""

    def test_engine_matches_legacy_realized_sweep(self):
        nonempty = 0
        for seed in range(2000):
            stops, coverage = random_timeline(seed)
            engine = interval_conflicts(stops, coverage)
            assert pair_set(engine) == pair_set(
                overlapping_cross_pairs(stops, coverage)
            ), f"seed {seed}"
            # Oriented and ordered by record (tour-position) order.
            index = {stop.node: i for i, stop in enumerate(stops)}
            keys = [(index[u], index[v]) for u, v, _ in engine]
            assert keys == sorted(keys)
            assert all(i < j for i, j in keys)
            nonempty += bool(engine)
        assert nonempty > 500


class TestResolutionParity:
    """The incremental resolver is byte-identical to full rescans."""

    def test_resolve_conflicts_parity_100_seeds(self):
        total_waits = 0
        for seed in range(NUM_SEEDS):
            a = random_schedule(seed)
            b = a.copy()
            legacy_waits = legacy_resolve_conflicts(a)
            engine_waits = resolve_conflicts(b)
            assert engine_waits == legacy_waits, f"seed {seed}"
            assert schedule_fingerprint(a) == schedule_fingerprint(b), (
                f"seed {seed}"
            )
            assert conflicting_pairs(b) == []
            total_waits += engine_waits
        assert total_waits > NUM_SEEDS  # the loop really inserts waits

    @pytest.mark.parametrize("num_stops", [40, 80])
    def test_ring_instance_matches_full_rescan(self, num_stops):
        legacy = ring_schedule(num_stops)
        engine = legacy.copy()
        legacy_waits = legacy_resolve_conflicts(legacy, max_rounds=100_000)
        engine_waits = resolve_conflicts(engine)
        assert engine_waits == legacy_waits
        assert schedule_fingerprint(engine) == schedule_fingerprint(legacy)
        assert conflicting_pairs(engine) == []
        # Genuinely adversarial: most rings serialise nearly all stops.
        assert engine_waits > num_stops / 2

    def test_resolve_conflicts_after_parity(self):
        for seed in range(0, NUM_SEEDS, 2):
            a = random_schedule(seed)
            skip = seed % a.num_tours
            frozen = 0.25 * a.longest_delay()
            b = a.copy()
            legacy_outcome = engine_outcome = None
            try:
                legacy_outcome = legacy_resolve_conflicts_after(
                    a, frozen, skip_tour=skip
                )
            except RuntimeError as exc:
                legacy_outcome = str(exc)
            try:
                engine_outcome = resolve_conflicts(
                    b, frozen_before_s=frozen, skip_tour=skip
                )
            except RuntimeError as exc:
                engine_outcome = str(exc)
            assert engine_outcome == legacy_outcome, f"seed {seed}"
            if not isinstance(engine_outcome, str):
                assert schedule_fingerprint(a) == schedule_fingerprint(
                    b
                ), f"seed {seed}"

    def test_resolver_set_tracks_full_rescan(self):
        """After every single delay the maintained set equals a from-
        scratch sweep — the incremental invariant, directly."""
        schedule = random_schedule(3)
        resolver = ConflictResolver(schedule)
        rng = np.random.default_rng(17)
        for _ in range(25):
            conflicts = resolver.conflicts()
            assert conflicts == conflicting_pairs(schedule)
            if not conflicts:
                break
            u, v, _ = conflicts[int(rng.integers(len(conflicts)))]
            later = max(
                (u, v), key=lambda n: schedule.stop_interval(n)[0]
            )
            resolver.delay(later, float(rng.uniform(1.0, 300.0)))
        # One more cross-check after the loop.
        assert resolver.conflicts() == conflicting_pairs(schedule)


class TestResolverOnlyOnConflict:
    """``resolve_conflicts`` sweeps once and builds the incremental
    resolver only when that sweep finds a conflict."""

    @staticmethod
    def count_resolvers(monkeypatch):
        built = []

        class Counted(ConflictResolver):
            def __init__(self, *args, **kwargs):
                built.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(conflicts, "ConflictResolver", Counted)
        return built

    def test_conflict_free_schedules_never_build_it(self, monkeypatch):
        built = self.count_resolvers(monkeypatch)
        for seed in range(0, NUM_SEEDS, 4):
            single_tour = random_schedule(seed, num_tours=1)
            assert resolve_conflicts(single_tour) == 0
            resolved = random_schedule(seed)
            legacy_resolve_conflicts(resolved)
            before = schedule_fingerprint(resolved)
            assert resolve_conflicts(resolved) == 0
            assert schedule_fingerprint(resolved) == before
        assert built == []

    def test_conflict_free_repair_calls_never_build_it(self, monkeypatch):
        """The same gate on a mid-round call: a frozen boundary plus a
        skipped tour, whether the schedule is conflict-free or its only
        conflicts involve the skipped tour."""
        built = self.count_resolvers(monkeypatch)
        for seed in range(0, NUM_SEEDS, 4):
            resolved = random_schedule(seed)
            legacy_resolve_conflicts(resolved)
            frozen = 0.25 * resolved.longest_delay()
            skip = seed % resolved.num_tours
            assert resolve_conflicts(
                resolved, frozen_before_s=frozen, skip_tour=skip
            ) == 0
            two_tours = random_schedule(seed, num_tours=2)
            before = schedule_fingerprint(two_tours)
            assert resolve_conflicts(
                two_tours, frozen_before_s=frozen, skip_tour=seed % 2
            ) == 0
            assert schedule_fingerprint(two_tours) == before
        assert built == []

    def test_conflicting_schedules_get_the_same_waits(self, monkeypatch):
        built = self.count_resolvers(monkeypatch)
        conflicted = 0
        for seed in range(NUM_SEEDS):
            legacy = random_schedule(seed)
            engine = legacy.copy()
            has_conflict = bool(conflicting_pairs(engine))
            conflicted += has_conflict
            legacy_waits = legacy_resolve_conflicts(legacy)
            built.clear()
            assert resolve_conflicts(engine) == legacy_waits, f"seed {seed}"
            assert built == ([engine] if has_conflict else []), f"seed {seed}"
            assert schedule_fingerprint(engine) == schedule_fingerprint(
                legacy
            ), f"seed {seed}"
        assert conflicted > NUM_SEEDS // 2

    def test_conflicting_calls_sweep_once(self, monkeypatch):
        """The resolver starts from the gate's pairs: a conflicting
        call, planned or mid-round, runs one full sweep."""
        sweeps = []
        full_sweep = conflicts.conflicting_pairs

        def counted(*args, **kwargs):
            sweeps.append(kwargs.get("skip_tour"))
            return full_sweep(*args, **kwargs)

        monkeypatch.setattr(conflicts, "conflicting_pairs", counted)
        for seed in range(NUM_SEEDS):
            schedule = random_schedule(seed)
            if not full_sweep(schedule):
                continue
            skip = seed % schedule.num_tours
            for kwargs in ({}, {"frozen_before_s": -1.0, "skip_tour": skip}):
                sweeps.clear()
                resolve_conflicts(schedule.copy(), **kwargs)
                assert sweeps == [kwargs.get("skip_tour")], f"seed {seed}"


#: Lattice spacing of the tie-break schedules: under the 2.7 m charge
#: radius each stop's disk reaches its axis and diagonal neighbours.
LATTICE_M = 1.5


def lattice_schedule(cells, tours, charge_times, num_tours):
    """Stops on a lattice around the depot, appended in list order.

    Lattice points mirrored about the depot share their depot distance
    bit for bit and the charge times come from a few values, so the
    first stops of different tours, and the stops after them, often
    start at exactly the same time.
    """
    spec = ChargerSpec()
    ids = list(range(len(cells)))
    positions = {
        i: Point(LATTICE_M * x, LATTICE_M * y)
        for i, (x, y) in enumerate(cells)
    }
    schedule = ChargingSchedule(
        depot=Point(0.0, 0.0),
        positions=positions,
        coverage=coverage_sets(
            ids, positions, spec.charge_radius_m, targets=ids
        ),
        charge_times=dict(zip(ids, charge_times)),
        charger=spec,
        num_tours=num_tours,
    )
    for node, tour in zip(ids, tours):
        schedule.append_stop(tour, node)
    return schedule


@st.composite
def lattice_schedules(draw):
    num_tours = draw(st.integers(2, 4))
    cells = draw(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
                lambda cell: cell != (0, 0)
            ),
            min_size=2,
            max_size=12,
            unique=True,
        )
    )
    size = len(cells)
    tours = draw(
        st.lists(st.integers(0, num_tours - 1), min_size=size,
                 max_size=size)
    )
    times = draw(
        st.lists(st.sampled_from([100.0, 200.0, 300.0]), min_size=size,
                 max_size=size)
    )
    return lattice_schedule(cells, tours, times, num_tours)


class WaitLog(ConflictResolver):
    """A resolver that logs each wait the loop inserts: the delayed
    stop, the chosen pair in position order, whether that pair's
    starts are equal and whether another pair shared its key."""

    log: list = []

    def conflicts(self):
        pairs = super().conflicts()
        start = {
            node: self.schedule.stop_interval(node)[0]
            for u, v, _ in pairs
            for node in (u, v)
        }
        keys = [
            (max(start[u], start[v]), min(u, v)) for u, v, _ in pairs
        ]
        if pairs:
            best = min(keys)
            u, v, _ = pairs[keys.index(best)]
            self.chosen = (
                u, v, start[u] == start[v], keys.count(best) > 1
            )
        return pairs

    def delay(self, node, extra_wait_s):
        self.log.append((node, *self.chosen))
        super().delay(node, extra_wait_s)


def logged_resolve(schedule, **kwargs):
    """``resolve_conflicts`` with its waits logged; returns the wait
    count or the error message, and the log."""
    log = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WaitLog, "log", log)
        patch.setattr(conflicts, "ConflictResolver", WaitLog)
        try:
            outcome = resolve_conflicts(schedule, **kwargs)
        except RuntimeError as exc:
            outcome = str(exc)
    return outcome, log


def legacy_outcome(resolve, schedule, *args, **kwargs):
    try:
        return resolve(schedule, *args, **kwargs)
    except RuntimeError as exc:
        return str(exc)


class TestTieBreak:
    """The one loop against both retired loops on schedules with
    planted equal starts."""

    @given(lattice_schedules())
    @settings(max_examples=150, deadline=None)
    def test_unfrozen_equals_planned_loop(self, schedule):
        legacy = schedule.copy()
        expected = legacy_outcome(legacy_resolve_conflicts, legacy)
        outcome, log = logged_resolve(schedule)
        assert outcome == expected
        assert schedule_fingerprint(schedule) == (
            schedule_fingerprint(legacy)
        )
        # On equal starts the position-later stop of the pair waits.
        for node, u, v, equal_starts, _ in log:
            if equal_starts:
                assert node == v

    @given(lattice_schedules(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_frozen_equals_repair_loop_without_ties(self, schedule, data):
        """Equal to the retired repair loop unless a chosen pair had
        equal starts (the retired loop delayed the larger node id) or
        shared its key with another pair (then list order picks, and
        the retired sweep listed pairs by start, not by position)."""
        starts = sorted(
            schedule.stop_interval(node)[0]
            for node in schedule.scheduled_stops()
        )
        frozen = data.draw(st.sampled_from([-1.0, *starts]))
        skip = data.draw(st.integers(-1, schedule.num_tours - 1))
        legacy = schedule.copy()
        expected = legacy_outcome(
            legacy_resolve_conflicts_after, legacy, frozen, skip_tour=skip
        )
        outcome, log = logged_resolve(
            schedule,
            frozen_before_s=frozen,
            skip_tour=None if skip < 0 else skip,
        )
        for node, u, v, equal_starts, _ in log:
            if equal_starts:
                assert node == v
        if any(equal or shared for _, _, _, equal, shared in log):
            return
        assert outcome == expected
        if not isinstance(outcome, str):
            assert schedule_fingerprint(schedule) == (
                schedule_fingerprint(legacy)
            )

    def test_lattice_draws_plant_ties(self):
        """The lattice family does reach the tie-break: seeded draws of
        it give chosen pairs with equal starts."""
        rng = np.random.default_rng(5)
        equal = 0
        for _ in range(200):
            cells = [
                (int(x), int(y))
                for x, y in rng.permutation(
                    [(x, y) for x in range(-2, 3) for y in range(-2, 3)
                     if (x, y) != (0, 0)]
                )[: int(rng.integers(2, 13))]
            ]
            num_tours = int(rng.integers(2, 5))
            schedule = lattice_schedule(
                cells,
                [int(rng.integers(num_tours)) for _ in cells],
                [float(rng.choice([100.0, 200.0, 300.0])) for _ in cells],
                num_tours,
            )
            _, log = logged_resolve(schedule)
            equal += sum(entry[3] for entry in log)
        assert equal >= 10

    def test_equal_starts_delay_the_position_later_stop(self):
        """Two first stops mirrored about the depot start together and
        share a sensor between them; the one later in position order
        (tour 1's, node 3) waits, although the retired repair loop
        delayed the larger node id (tour 0's, node 7)."""

        def build():
            spec = ChargerSpec()
            positions = {
                7: Point(2.0, 0.0),
                3: Point(0.0, 2.0),
                9: Point(1.0, 1.0),  # the shared sensor
            }
            schedule = ChargingSchedule(
                depot=Point(0.0, 0.0),
                positions=positions,
                coverage=coverage_sets(
                    [7, 3], positions, spec.charge_radius_m,
                    targets=sorted(positions),
                ),
                charge_times={7: 200.0, 3: 200.0, 9: 100.0},
                charger=spec,
                num_tours=2,
            )
            schedule.append_stop(0, 7)
            schedule.append_stop(1, 3)
            return schedule

        schedule = build()
        assert schedule.stop_interval(7) == schedule.stop_interval(3)
        assert resolve_conflicts(schedule, frozen_before_s=-1.0) == 1
        assert schedule.wait[7] == 0.0
        assert schedule.wait[3] > 0.0
        retired = build()
        assert legacy_resolve_conflicts_after(retired, -1.0) == 1
        assert retired.wait[3] == 0.0
        assert retired.wait[7] > 0.0


class TestPlannerParity:
    """Acceptance criterion: 100+ seeded instances across every
    registered planner produce schedules byte-identical to the
    pre-change implementation.

    For the multi-node planners (the only ones that resolve conflicts)
    the reference is the same raw plan resolved by the retired
    full-rescan all-pairs loop; the one-to-one planners never resolve
    conflicts, so their pre-change implementation *is* the current one —
    pinned by a byte-level determinism check on the same instances (and
    against the retired itinerary type in
    ``tests/test_baselines_parity.py``); they must validate clean too.
    """

    SEEDS = range(17)  # 17 seeds x 6 planners = 102 instances

    @staticmethod
    def _network(seed: int):
        from repro.network.topology import random_wrsn

        net = random_wrsn(num_sensors=50, seed=seed)
        rng = np.random.default_rng(seed + 1000)
        net.set_residuals(
            {
                sid: float(rng.uniform(0.0, 0.2)) * 10_800.0
                for sid in net.all_sensor_ids()
            }
        )
        return net

    def test_all_registered_planners_byte_identical(self):
        from repro.pipeline.planner import (
            get_planner,
            planner_names,
            run_planner,
        )

        names = planner_names()
        assert len(names) >= 5  # the paper's five at minimum
        multi = 0
        for name in names:
            info = get_planner(name)
            for seed in self.SEEDS:
                requests = self._network(seed).all_sensor_ids()
                planned = run_planner(
                    name, self._network(seed), requests, 3
                )
                if info.multi_node:
                    raw = info.build(
                        self._network(seed),
                        requests,
                        3,
                        enforce_feasibility=False,
                    )
                    legacy_resolve_conflicts(raw)
                    assert schedule_fingerprint(planned.raw) == (
                        schedule_fingerprint(raw)
                    ), f"{name} seed {seed}"
                    assert planned.validate(requests) == []
                    multi += 1
                else:
                    again = run_planner(
                        name, self._network(seed), requests, 3
                    )
                    assert schedule_fingerprint(planned.raw) == (
                        schedule_fingerprint(again.raw)
                    ), f"{name} seed {seed}"
                    assert planned.validate(requests) == []
        assert multi >= 2 * len(self.SEEDS)  # engine path covered


class TestEngineSurface:
    """Direct unit tests of the engine's own API."""

    def test_stop_groups_inverts_coverage(self):
        schedule = random_schedule(0)
        groups = stop_groups(schedule)
        for node in schedule.scheduled_stops():
            for sensor in schedule.coverage[node]:
                assert node in groups[sensor]
        for sensor, members in groups.items():
            for node in members:
                assert sensor in schedule.coverage[node]

    def test_stop_groups_skip_tour(self):
        schedule = random_schedule(1)
        groups = stop_groups(schedule, skip_tour=0)
        banned = set(schedule.tours[0])
        assert banned  # fixture sanity
        for members in groups.values():
            assert not banned & set(members)

    def test_caller_supplied_groups_give_identical_output(self):
        schedule = random_schedule(4)
        groups = stop_groups(schedule)
        # Widen with unscheduled candidates: they must be ignored.
        widened = {
            sensor: list(members) + [10_000 + sensor]
            for sensor, members in groups.items()
        }
        assert conflicting_pairs(schedule, groups=widened) == (
            conflicting_pairs(schedule)
        )

    def test_incomplete_groups_are_rebuilt_not_trusted(self):
        schedule = random_schedule(4)
        pairs = conflicting_pairs(schedule)
        assert pairs
        # Drop every group: a trusting engine would report nothing.
        assert conflicting_pairs(schedule, groups={}) == pairs

    def test_touching_intervals_are_legal_in_engine_and_sweep(self):
        """The unified closed-interval rule at the boundary: exactly
        touching (and up-to-eps overlapping) intervals never conflict,
        in either detector."""
        positions = {1: Point(10, 0), 2: Point(12, 0), 9: Point(11, 0)}
        coverage = {1: frozenset({1, 9}), 2: frozenset({2, 9})}
        charge_times = {1: 500.0, 2: 500.0, 9: 500.0}
        schedule = ChargingSchedule(
            depot=Point(0, 0),
            positions=positions,
            coverage=coverage,
            charge_times=charge_times,
            charger=ChargerSpec(),
            num_tours=2,
        )
        schedule.append_stop(0, 1)
        schedule.append_stop(1, 2)
        # Align stop 2's start exactly with stop 1's finish.
        start_2 = schedule.stop_interval(2)[0]
        schedule.add_wait(2, schedule.finish[1] - start_2)
        assert conflicting_pairs(schedule) == []
        assert legacy_cross_tour_conflicts(schedule, -1) == []
        assert all_pairs_conflicting_pairs(schedule) == []
        # Back inside by eps/2: still touching for all three.
        schedule.wait[2] -= OVERLAP_EPS / 2
        schedule.recompute_finish_times(1)
        assert conflicting_pairs(schedule) == []
        assert legacy_cross_tour_conflicts(schedule, -1) == []
        assert all_pairs_conflicting_pairs(schedule) == []

    def test_engine_is_exported_from_core(self):
        import repro.core as core

        assert core.conflicting_pairs is conflicting_pairs
        assert core.OVERLAP_EPS == OVERLAP_EPS
        assert core.minimum_pairwise_slack is minimum_pairwise_slack
