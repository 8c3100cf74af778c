"""Unit, property and parity tests for :mod:`repro.core.conflicts`.

The conflict engine replaced three separately-written detectors (the
validator's all-pairs scan, the repair engine's global sweep, the
robustness per-sensor sweep). These tests pin the unification:

* **conflict-set parity** — on 100 seeded random schedules the engine,
  the retired all-pairs scan and the retired repair sweep report
  *identical* conflict sets (the epsilon-drift bugfix: one closed-
  interval ``overlap > eps`` rule for everyone);
* **resolution parity** — the incremental :class:`ConflictResolver`
  produces byte-identical schedules (same waits, same pair order, same
  ``longest_delay``) to the retired full-rescan loops, both for
  ``validation.resolve_conflicts`` and ``repair.resolve_conflicts_
  after``, on random schedules and on the adversarial ring instance;
* **planner parity** — end-to-end ``Appro`` / ``GreedyCover`` runs
  equal a reconstruction that resolves conflicts with the retired
  all-pairs loop.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.conflicts import (
    OVERLAP_EPS,
    ConflictResolver,
    conflicting_pairs,
    has_conflict,
    minimum_pairwise_slack,
    stop_groups,
)
from repro.core.schedule import ChargingSchedule
from repro.core.validation import resolve_conflicts
from repro.energy.charging import ChargerSpec
from repro.geometry.point import Point
from repro.graphs.coverage import coverage_sets

from tests._legacy_conflicts import (
    all_pairs_conflicting_pairs,
    brute_force_minimum_slack,
    legacy_cross_tour_conflicts,
    legacy_resolve_conflicts,
    legacy_resolve_conflicts_after,
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
        engine_waits = resolve_conflicts(engine, max_rounds=100_000)
        assert engine_waits == legacy_waits
        assert schedule_fingerprint(engine) == schedule_fingerprint(legacy)
        assert conflicting_pairs(engine) == []
        # Genuinely adversarial: most rings serialise nearly all stops.
        assert engine_waits > num_stops / 2

    def test_resolve_conflicts_after_parity(self):
        from repro.core.repair import resolve_conflicts_after

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
                engine_outcome = resolve_conflicts_after(
                    b, frozen, skip_tour=skip
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


def baseline_fingerprint(schedule):
    """Byte-level view of a one-to-one ``BaselineSchedule``."""
    return (
        [
            [(v.sensor_id, v.arrival_s, v.finish_s) for v in itinerary]
            for itinerary in schedule.itineraries
        ],
        schedule.tour_delays(),
        schedule.longest_delay(),
    )


class TestPlannerParity:
    """Acceptance criterion: 100+ seeded instances across every
    registered planner produce schedules byte-identical to the
    pre-change implementation.

    For the multi-node planners (the only ones that resolve conflicts)
    the reference is the same raw plan resolved by the retired
    full-rescan all-pairs loop; the one-to-one planners never touch the
    engine, so their pre-change implementation *is* the current one —
    pinned by a byte-level determinism check on the same instances.
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
                    assert baseline_fingerprint(planned.raw) == (
                        baseline_fingerprint(again.raw)
                    ), f"{name} seed {seed}"
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

    def test_has_conflict_agrees_with_pairs(self):
        hits = 0
        for seed in range(30):
            schedule = random_schedule(seed, num_stops=10)
            expected = bool(conflicting_pairs(schedule))
            assert has_conflict(schedule) == expected
            hits += expected
        assert 0 < hits < 30  # both outcomes exercised

    def test_frozen_before_drops_fully_frozen_pairs(self):
        schedule = random_schedule(2)
        pairs = conflicting_pairs(schedule)
        assert pairs  # fixture sanity
        cutoff = max(
            max(
                schedule.stop_interval(u)[0],
                schedule.stop_interval(v)[0],
            )
            for u, v, _ in pairs
        ) + 1.0
        assert conflicting_pairs(
            schedule, frozen_before_s=cutoff
        ) == []
        kept = conflicting_pairs(schedule, frozen_before_s=0.0)
        assert kept == pairs

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
