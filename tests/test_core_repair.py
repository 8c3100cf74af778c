"""Unit and property tests for :mod:`repro.core.repair`."""

import math

import numpy as np
import pytest

from repro.core.appro import appro_schedule
from repro.core.conflicts import (
    conflicting_pairs,
    interval_conflicts,
    resolve_conflicts,
)
from repro.core.repair import RepairConfig, repair_schedule
from repro.core.schedule import ChargingSchedule
from repro.core.validation import validate_schedule
from repro.energy.charging import ChargerSpec
from repro.geometry.point import Point
from repro.network.topology import random_wrsn
from repro.sim.faults.timeline import replay_with_factors


def _depleted(num_sensors, seed):
    net = random_wrsn(num_sensors=num_sensors, seed=seed)
    rng = np.random.default_rng(seed + 1)
    net.set_residuals(
        {
            sid: float(rng.uniform(0.0, 0.2)) * 10_800.0
            for sid in net.all_sensor_ids()
        }
    )
    return net


@pytest.fixture
def schedule(depleted_net):
    return appro_schedule(
        depleted_net, depleted_net.all_sensor_ids(), num_chargers=3
    )


class TestRepairConfig:
    def test_defaults_valid(self):
        cfg = RepairConfig()
        assert cfg.max_attempts == 3
        assert cfg.max_delay_stretch >= 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_delay_stretch": 0.5},
            {"backoff_factor": 0.9},
            {"notification_delay_s": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RepairConfig(**kwargs)


class TestScheduleSurgery:
    def test_remove_then_reinsert_roundtrip(self, schedule):
        node = schedule.tours[0][-1]
        tour = list(schedule.tours[0])
        duration = schedule.duration[node]
        finish_before = dict(schedule.finish)
        anchor = tour[-2] if len(tour) > 1 else None
        schedule.remove_stop(node)
        assert node not in schedule.tour_of
        assert node not in schedule.finish
        # Coverage retained: the sensors still point at the stop.
        assert all(
            schedule.charged_by[s] == node for s in schedule.charges[node]
        )
        schedule.reinsert_stop(0, anchor, node)
        assert schedule.tours[0] == tour
        assert schedule.duration[node] == pytest.approx(duration)
        for n, f in finish_before.items():
            assert schedule.finish[n] == pytest.approx(f)

    def test_remove_releases_coverage_when_asked(self, schedule):
        node = schedule.tours[0][-1]
        sensors = set(schedule.charges[node])
        schedule.remove_stop(node, release_coverage=True)
        assert node not in schedule.charges
        assert node not in schedule.duration
        for s in sensors:
            assert s not in schedule.charged_by

    def test_copy_is_independent(self, schedule):
        clone = schedule.copy()
        node = clone.tours[0][-1]
        clone.add_wait(node, 123.0)
        assert schedule.wait.get(node, 0.0) == 0.0
        assert clone.longest_delay() >= schedule.longest_delay()
        assert clone.tours == schedule.tours
        assert clone.tours is not schedule.tours


class TestRepairSchedule:
    def test_failed_tour_out_of_range(self, schedule):
        with pytest.raises(ValueError):
            repair_schedule(schedule, 99, 100.0)
        with pytest.raises(ValueError):
            repair_schedule(schedule, 0, -1.0)

    def test_basic_repair_moves_orphans(self, schedule):
        working = schedule.copy()
        failure = 0.3 * schedule.longest_delay()
        outcome = repair_schedule(working, 0, failure)
        # Every pre-failure stop kept, everything else accounted for.
        assert set(outcome.completed) == {
            n
            for n in schedule.tours[0]
            if schedule.finish[n] <= failure
        }
        moved = set(outcome.reassigned) | set(outcome.deferred)
        assert moved == set(schedule.tours[0]) - set(outcome.completed)
        assert working.tours[0] == outcome.completed
        # Reassigned stops live on surviving tours and start after the
        # failure moment.
        for node in outcome.reassigned:
            assert working.tour_of[node] != 0
            start, _ = working.stop_interval(node)
            assert start >= failure - 1e-6
        # The repaired plan is feasible (waits restored the invariant).
        violations = validate_schedule(working, [])
        assert [v for v in violations if v.kind == "overlap"] == []

    def test_coverage_preserved_without_deferral(self, schedule):
        working = schedule.copy()
        outcome = repair_schedule(
            working, 1, 0.5 * schedule.longest_delay()
        )
        if not outcome.deferred:
            assert working.covered_sensors() == schedule.covered_sensors()
        else:
            lost = set(outcome.deferred_sensors)
            assert working.covered_sensors() == (
                schedule.covered_sensors() - lost
            )

    def test_notification_delay_floor(self, schedule):
        working = schedule.copy()
        failure = 0.4 * schedule.longest_delay()
        cfg = RepairConfig(notification_delay_s=600.0)
        outcome = repair_schedule(working, 0, failure, config=cfg)
        for node in outcome.reassigned:
            start, _ = working.stop_interval(node)
            assert start >= failure + 600.0 - 1e-6

    def test_single_vehicle_defers_everything(self, depleted_net):
        schedule = appro_schedule(
            depleted_net, depleted_net.all_sensor_ids(), num_chargers=1
        )
        working = schedule.copy()
        failure = 0.5 * schedule.longest_delay()
        outcome = repair_schedule(working, 0, failure)
        assert outcome.degraded
        assert not outcome.reassigned
        assert set(outcome.deferred) == {
            n for n in schedule.tours[0] if schedule.finish[n] > failure
        }
        # Deferred sensors lost their responsible stop.
        for sensor in outcome.deferred_sensors:
            assert sensor not in working.charged_by

    def test_tight_budget_enters_degraded_mode(self, schedule):
        working = schedule.copy()
        cfg = RepairConfig(
            max_attempts=1, max_delay_stretch=1.0, backoff_factor=1.0
        )
        outcome = repair_schedule(
            working, 0, 0.1 * schedule.longest_delay(), config=cfg
        )
        # With no budget slack the engine may defer; whatever happens,
        # the result must stay feasible and fully accounted.
        violations = validate_schedule(working, [])
        assert [v for v in violations if v.kind == "overlap"] == []
        assert outcome.fully_repaired == (not outcome.deferred)

    def test_resolve_conflicts_respects_frozen_prefix(self, schedule):
        working = schedule.copy()
        frozen = 0.5 * schedule.longest_delay()
        started_before = {
            n: working.stop_interval(n)[0]
            for n in working.scheduled_stops()
            if working.stop_interval(n)[0] < frozen
        }
        resolve_conflicts(working, frozen_before_s=frozen)
        for node, start in started_before.items():
            assert working.stop_interval(node)[0] == pytest.approx(start)


def _two_stop_frame(intervals):
    """Two-tour synthetic schedule with exact stop intervals.

    ``intervals`` maps node -> (start, finish); node 1 goes on tour 0,
    node 2 on tour 1. Both disks contain sensor 3, so the stops form a
    conflict group. A table-backed distance function (unit speed) pins
    the start times exactly — no floating-point round trips.
    """
    charger = ChargerSpec(travel_speed_mps=1.0)
    positions = {
        1: Point(0.0, 10.0),
        2: Point(5.0, 10.0),
        3: Point(2.5, 10.0),
    }
    coverage = {1: frozenset({1, 3}), 2: frozenset({2, 3})}
    legs = {(None, 1): intervals[1][0], (None, 2): intervals[2][0]}
    sched = ChargingSchedule(
        depot=Point(0.0, 0.0),
        positions=positions,
        coverage=coverage,
        charge_times={},
        charger=charger,
        num_tours=2,
        distance=lambda a, b: legs.get((a, b), 0.0),
    )
    for tour, node in ((0, 1), (1, 2)):
        sched.tours[tour].append(node)
        sched.tour_of[node] = tour
        sched.duration[node] = intervals[node][1] - intervals[node][0]
        sched.wait[node] = 0.0
        sched.recompute_finish_times(tour)
    return sched


class TestFrozenBoundaryClosed:
    """A stop whose start equals the frozen instant is already active
    (closed-interval semantics): resolution must never move it."""

    def test_stop_starting_exactly_at_boundary_is_frozen(self):
        # Node 1 starts exactly at the boundary; node 2 starts later
        # and overlaps it. The boundary stop must stay put and the
        # future stop must yield.
        sched = _two_stop_frame({1: (100.0, 300.0), 2: (150.0, 350.0)})
        waits = resolve_conflicts(sched, frozen_before_s=100.0)
        assert waits >= 1
        assert sched.stop_interval(1) == (100.0, 300.0)
        assert sched.stop_interval(2)[0] >= 300.0
        assert conflicting_pairs(sched) == []

    def test_overlap_with_boundary_stop_is_infeasible(self):
        # Node 1 started strictly before the boundary, node 2 exactly
        # at it: both belong to the realized past. The engine must
        # refuse (the pre-fault plan was infeasible) rather than
        # silently delaying the already-charging boundary stop, which
        # the old strict-< rule would have done.
        sched = _two_stop_frame({1: (50.0, 300.0), 2: (100.0, 350.0)})
        with pytest.raises(RuntimeError, match="at or before"):
            resolve_conflicts(sched, frozen_before_s=100.0)

    def test_repair_at_exact_stop_start_stays_feasible(self, schedule):
        # Failure time chosen as the exact start of a surviving-tour
        # stop: the repaired plan must treat that stop as frozen and
        # still restore feasibility (reassigned orphans are nudged
        # strictly past the boundary by the engine).
        surviving = [
            n for k in (1, 2) for n in schedule.tours[k]
        ]
        starts = sorted(schedule.stop_interval(n)[0] for n in surviving)
        failure = starts[len(starts) // 2]
        working = schedule.copy()
        frozen_before = {
            n: working.stop_interval(n)
            for n in surviving
            if working.stop_interval(n)[0] <= failure
        }
        outcome = repair_schedule(
            working, 0, failure, config=RepairConfig(notification_delay_s=0.0)
        )
        for node, interval in frozen_before.items():
            if node in working.tour_of:
                assert working.stop_interval(node) == pytest.approx(interval)
        for node in outcome.reassigned:
            assert working.stop_interval(node)[0] > failure
        violations = validate_schedule(working, [])
        assert [v for v in violations if v.kind == "overlap"] == []


class TestRepairProperty:
    """Acceptance criterion: across >= 100 fault seeds on a 100-sensor
    K=3 workload, a mid-round breakdown repair never produces
    overlapping cross-tour disk intervals on the realized timeline."""

    def test_no_realized_violations_across_100_fault_seeds(self):
        net = _depleted(num_sensors=100, seed=202)
        schedule = appro_schedule(
            net, net.all_sensor_ids(), num_chargers=3
        )
        planned = schedule.longest_delay()
        assert planned > 0
        rng = np.random.default_rng(777)
        for trial in range(100):
            failed_tour = int(rng.integers(0, schedule.num_tours))
            at_fraction = float(rng.uniform(0.1, 0.9))
            working = schedule.copy()
            outcome = repair_schedule(
                working, failed_tour, at_fraction * planned
            )
            executed, _ = replay_with_factors(working)
            conflicts = interval_conflicts(executed, working.coverage)
            assert conflicts == [], (
                f"trial {trial}: realized violations {conflicts} "
                f"(tour {failed_tour} at {at_fraction:.2f})"
            )
            # Accounting invariant: every original stop is either kept,
            # reassigned or deferred.
            original = set(schedule.scheduled_stops())
            now = set(working.scheduled_stops())
            assert now | set(outcome.deferred) == original

    def test_repair_bounded_delay_or_degraded(self):
        net = _depleted(num_sensors=60, seed=55)
        schedule = appro_schedule(
            net, net.all_sensor_ids(), num_chargers=3
        )
        planned = schedule.longest_delay()
        cfg = RepairConfig(max_attempts=3, max_delay_stretch=2.0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            working = schedule.copy()
            outcome = repair_schedule(
                working,
                int(rng.integers(0, 3)),
                float(rng.uniform(0.1, 0.9)) * planned,
                config=cfg,
            )
            budget = (
                cfg.max_delay_stretch
                * cfg.backoff_factor ** (cfg.max_attempts - 1)
                * max(planned, outcome.failure_time_s)
            )
            if not outcome.degraded:
                assert outcome.repaired_longest_delay_s <= budget + 1e-6

    def test_repair_is_deterministic(self, schedule):
        failure = 0.37 * schedule.longest_delay()
        a, b = schedule.copy(), schedule.copy()
        out_a = repair_schedule(a, 2, failure)
        out_b = repair_schedule(b, 2, failure)
        assert out_a.reassigned == out_b.reassigned
        assert out_a.deferred == out_b.deferred
        assert a.tours == b.tours
        assert a.finish == pytest.approx(b.finish)


def test_validate_after_repair_keeps_node_disjointness(depleted_net):
    schedule = appro_schedule(
        depleted_net, depleted_net.all_sensor_ids(), num_chargers=2
    )
    working = schedule.copy()
    repair_schedule(working, 0, 0.25 * schedule.longest_delay())
    stops = working.scheduled_stops()
    assert len(stops) == len(set(stops))
    assert math.isfinite(working.longest_delay())
