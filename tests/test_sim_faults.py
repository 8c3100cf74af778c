"""Unit tests for :mod:`repro.sim.faults`."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.kedf import kedf_schedule
from repro.core.appro import appro_schedule
from repro.core.conflicts import interval_conflicts
from repro.sim.faults import (
    ChargeDroop,
    ChargeInterruption,
    DepotCommDelay,
    FaultPlan,
    MCVBreakdown,
    NO_FAULTS,
    RequestSurge,
    RoundFaults,
    SensorFailure,
    TravelSlowdown,
    draw_round_faults,
    execute_with_faults,
    get_scenario,
    scenario_names,
    surge_victims,
)
from repro.sim.faults.injector import rng_for_round
from repro.sim.faults.timeline import ExecutedStop, replay_with_factors
from repro.sim.online import OnlineMonitoringSimulation
from repro.sim.simulator import MonitoringSimulation


@pytest.fixture
def schedule(depleted_net):
    return appro_schedule(
        depleted_net, depleted_net.all_sensor_ids(), num_chargers=3
    )


@pytest.fixture
def baseline(depleted_net):
    requests = depleted_net.all_sensor_ids()
    lifetimes = {sid: 1e12 for sid in requests}
    return kedf_schedule(
        depleted_net, requests, num_chargers=3, lifetimes=lifetimes
    )


class TestSpecs:
    def test_probability_validation(self):
        for cls in (
            MCVBreakdown, ChargeDroop, ChargeInterruption,
            TravelSlowdown, SensorFailure, DepotCommDelay,
            RequestSurge,
        ):
            with pytest.raises(ValueError):
                cls(probability=1.5)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            MCVBreakdown(at_fraction=1.5)
        with pytest.raises(ValueError):
            ChargeDroop(min_factor=0.9)
        with pytest.raises(ValueError):
            ChargeInterruption(min_pause_s=100.0, max_pause_s=10.0)
        with pytest.raises(ValueError):
            TravelSlowdown(min_factor=2.0, max_factor=1.5)
        with pytest.raises(ValueError):
            DepotCommDelay(min_delay_s=-1.0)
        with pytest.raises(ValueError):
            RequestSurge(min_fraction=0.8, max_fraction=0.4)
        with pytest.raises(ValueError):
            RequestSurge(max_fraction=1.2)
        with pytest.raises(ValueError):
            FaultPlan(seed=-1)

    def test_specs_are_frozen_and_hashable(self):
        spec = MCVBreakdown()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.probability = 0.5
        assert hash(FaultPlan(specs=(spec,), seed=3))

    def test_no_faults_is_identity(self):
        assert not NO_FAULTS.any
        assert RoundFaults(travel_factor=1.2).any
        assert RoundFaults(failed_sensors=frozenset({1})).any
        assert RoundFaults(surge_fraction=0.3).any

    def test_with_seed(self):
        plan = get_scenario("breakdown", seed=0)
        reseeded = plan.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.specs == plan.specs
        assert reseeded.name == plan.name


class TestInjector:
    def test_deterministic_per_round(self):
        plan = get_scenario("perfect-storm", seed=12)
        a = draw_round_faults(plan, 4, 3, sensor_ids=range(50))
        b = draw_round_faults(plan, 4, 3, sensor_ids=range(50))
        assert a == b

    def test_rounds_are_independent_streams(self):
        plan = get_scenario("droop", seed=12)
        draws = {
            draw_round_faults(plan, i, 3).charge_factor
            for i in range(20)
        }
        assert len(draws) > 1

    def test_seed_changes_draws(self):
        draws_by_seed = [
            tuple(
                draw_round_faults(
                    get_scenario("flaky-breakdown", seed=s), i, 3
                ).breakdown
                is not None
                for i in range(30)
            )
            for s in (1, 2)
        ]
        assert draws_by_seed[0] != draws_by_seed[1]

    def test_breakdown_fields_in_range(self):
        plan = get_scenario("breakdown", seed=5)
        for i in range(20):
            faults = draw_round_faults(plan, i, 4)
            assert faults.breakdown is not None
            assert 0 <= faults.breakdown.vehicle < 4
            assert 0.1 <= faults.breakdown.at_fraction <= 0.9

    def test_pinned_breakdown(self):
        plan = FaultPlan(
            specs=(MCVBreakdown(vehicle=1, at_fraction=0.5),), seed=0
        )
        faults = draw_round_faults(plan, 0, 3)
        assert faults.breakdown.vehicle == 1
        assert faults.breakdown.at_fraction == 0.5

    def test_sensor_failure_draws_from_population(self):
        plan = FaultPlan(specs=(SensorFailure(probability=1.0),), seed=2)
        faults = draw_round_faults(plan, 0, 3, sensor_ids=[7, 8, 9])
        assert faults.failed_sensors
        assert faults.failed_sensors <= {7, 8, 9}
        empty = draw_round_faults(plan, 0, 3, sensor_ids=[])
        assert not empty.failed_sensors

    def test_surge_draw_in_range(self):
        plan = FaultPlan(
            specs=(
                RequestSurge(
                    probability=1.0, min_fraction=0.25, max_fraction=0.5
                ),
            ),
            seed=5,
        )
        faults = draw_round_faults(plan, 0, 3)
        assert 0.25 <= faults.surge_fraction <= 0.5
        assert 0.0 <= faults.surge_rank < 1.0

    def test_surge_victims_deterministic_slice(self):
        faults = RoundFaults(surge_fraction=0.5, surge_rank=0.9)
        ids = [30, 10, 20, 40]
        victims = surge_victims(faults, ids)
        # ceil(0.5 * 4) = 2 victims, wraparound slice from rank 0.9
        # of the sorted population (start index 3): {40, 10}.
        assert victims == [10, 40]
        assert surge_victims(faults, []) == []
        assert surge_victims(RoundFaults(), ids) == []
        everyone = surge_victims(
            RoundFaults(surge_fraction=1.0, surge_rank=0.3), ids
        )
        assert everyone == sorted(ids)

    def test_surge_keeps_draws_aligned(self):
        # A surge spec ahead of a breakdown spec must not shift the
        # breakdown's stream between firing and non-firing rounds:
        # compare against a plan whose surge never fires.
        always = FaultPlan(
            specs=(RequestSurge(probability=1.0), MCVBreakdown()),
            seed=8,
        )
        never = FaultPlan(
            specs=(RequestSurge(probability=0.0), MCVBreakdown()),
            seed=8,
        )
        for i in range(5):
            a = draw_round_faults(always, i, 3)
            b = draw_round_faults(never, i, 3)
            assert a.breakdown == b.breakdown
            assert a.surge_fraction > 0.0
            assert b.surge_fraction == 0.0

    def test_empty_plan_draws_nothing(self):
        plan = get_scenario("none", seed=4)
        for i in range(5):
            assert not draw_round_faults(plan, i, 3).any

    def test_rng_for_round_stable(self):
        plan = get_scenario("breakdown", seed=1)
        a = rng_for_round(plan, 2).integers(0, 1 << 30)
        b = rng_for_round(plan, 2).integers(0, 1 << 30)
        assert a == b


class TestScenarios:
    def test_registry_names(self):
        names = scenario_names()
        assert "none" in names and "breakdown" in names
        assert names == sorted(names)

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="known"):
            get_scenario("nope")

    def test_all_scenarios_buildable(self):
        for name in scenario_names():
            plan = get_scenario(name, seed=1)
            assert plan.name == name
            draw_round_faults(plan, 0, 3, sensor_ids=range(10))


class TestTimeline:
    def test_replay_identity_matches_plan(self, schedule):
        stops, longest = replay_with_factors(schedule)
        assert longest == pytest.approx(schedule.longest_delay())
        for stop in stops:
            ps, pf = schedule.stop_interval(stop.node)
            assert stop.start_s == pytest.approx(ps)
            assert stop.finish_s == pytest.approx(pf)

    def test_replay_factors_stretch(self, schedule):
        _, slow = replay_with_factors(
            schedule, travel_factor=1.5, charge_factor=1.2
        )
        assert slow > schedule.longest_delay()

    def test_replay_invalid_factors(self, schedule):
        with pytest.raises(ValueError):
            replay_with_factors(schedule, travel_factor=0.0)
        with pytest.raises(ValueError):
            replay_with_factors(schedule, pause_rank=1.5, pause_s=1.0)

    def test_pause_hits_exactly_one_stop(self, schedule):
        base, _ = replay_with_factors(schedule)
        paused, _ = replay_with_factors(
            schedule, pause_rank=0.5, pause_s=500.0
        )
        base_by = {s.node: s for s in base}
        grew = [
            s.node
            for s in paused
            if (s.finish_s - s.start_s)
            > (base_by[s.node].finish_s - base_by[s.node].start_s) + 1e-9
        ]
        assert len(grew) == 1

    def test_sweep_matches_brute_force(self):
        rng = np.random.default_rng(3)
        coverage = {
            n: frozenset(rng.choice(12, size=3, replace=False))
            for n in range(40)
        }
        stops = [
            ExecutedStop(
                node=n,
                tour=int(rng.integers(0, 4)),
                start_s=float(rng.uniform(0, 100)),
                finish_s=0.0,
            )
            for n in range(40)
        ]
        stops = [
            s._replace(finish_s=s.start_s + float(rng.uniform(0.1, 30)))
            for s in stops
        ]
        brute = set()
        for i, a in enumerate(stops):
            for b in stops[i + 1:]:
                if a.tour == b.tour:
                    continue
                if not (coverage[a.node] & coverage[b.node]):
                    continue
                overlap = min(a.finish_s, b.finish_s) - max(
                    a.start_s, b.start_s
                )
                if overlap > 1e-9:
                    brute.add(frozenset((a.node, b.node)))
        swept = {
            frozenset((u, v))
            for u, v, _ in interval_conflicts(stops, coverage)
        }
        assert swept == brute
        assert brute  # the instance actually exercises the sweep


class TestExecutor:
    def test_identity_draw_reproduces_plan(self, schedule):
        outcome = execute_with_faults(schedule)
        assert outcome.realized_delay_s == pytest.approx(
            schedule.longest_delay()
        )
        assert outcome.extra_delay_s == pytest.approx(0.0)
        assert outcome.violation_count == 0
        assert outcome.repairs == 0 and not outcome.degraded
        planned = schedule.sensor_finish_times()
        assert set(outcome.sensor_finish_s) == set(planned)
        for sid, f in planned.items():
            assert outcome.sensor_finish_s[sid] == pytest.approx(f)

    def test_breakdown_triggers_repair_without_mutation(self, schedule):
        before = [list(t) for t in schedule.tours]
        plan = get_scenario("breakdown", seed=8)
        faults = draw_round_faults(plan, 0, schedule.num_tours)
        outcome = execute_with_faults(schedule, faults)
        assert schedule.tours == before  # never mutated
        assert outcome.breakdown_time_s is not None
        assert outcome.repair is not None
        assert outcome.repairs == len(outcome.repair.reassigned)
        assert outcome.violation_count == 0

    def test_breakdown_draws_repair_without_violations(self, schedule):
        """Twenty seeded breakdown rounds: every one breaks a vehicle,
        no realized timeline violates the constraint, and the repair
        engine re-inserts stops."""
        plan = get_scenario("breakdown", seed=1)
        sensor_ids = sorted(schedule.charge_times)
        outcomes = [
            execute_with_faults(
                schedule,
                draw_round_faults(
                    plan, trial, schedule.num_tours, sensor_ids=sensor_ids
                ),
            )
            for trial in range(20)
        ]
        assert all(o.breakdown_time_s is not None for o in outcomes)
        assert all(o.violation_count == 0 for o in outcomes)
        assert sum(o.repairs for o in outcomes) > 0

    def test_factors_stretch_realized_delay(self, schedule):
        faults = RoundFaults(charge_factor=1.3, travel_factor=1.2)
        outcome = execute_with_faults(schedule, faults)
        assert outcome.realized_delay_s > schedule.longest_delay()
        assert outcome.conflicts == []

    def test_baseline_execution(self, baseline):
        outcome = execute_with_faults(baseline)
        assert outcome.conflicts == []  # stops share no sensor
        assert outcome.violation_count == 0
        assert outcome.realized_delay_s == pytest.approx(
            baseline.longest_delay(), rel=1e-6
        )

    def test_baseline_breakdown_requeues(self, baseline):
        plan = get_scenario("breakdown", seed=8)
        faults = draw_round_faults(plan, 0, baseline.num_tours)
        outcome = execute_with_faults(baseline, faults)
        assert outcome.breakdown_time_s is not None
        assert outcome.repairs > 0 or outcome.deferred_sensors

    def test_unknown_result_type(self):
        with pytest.raises(TypeError):
            execute_with_faults(object())


class TestSimulatorWiring:
    HORIZON = 20 * 24 * 3600.0

    def test_fault_plan_changes_metrics(self, depleted_net):
        base = MonitoringSimulation(
            depleted_net, "Appro", num_chargers=3, horizon_s=self.HORIZON
        ).run()
        faulty = MonitoringSimulation(
            depleted_net, "Appro", num_chargers=3, horizon_s=self.HORIZON,
            fault_plan=get_scenario("breakdown", seed=2),
        ).run()
        assert base.fault_rounds == 0
        assert base.total_repairs == 0
        assert faulty.fault_rounds > 0
        assert faulty.total_repairs > 0
        assert faulty.mean_longest_delay_s > base.mean_longest_delay_s
        assert "repairs=" in faulty.summary()

    def test_fault_runs_are_deterministic(self, depleted_net):
        plan = get_scenario("perfect-storm", seed=6)
        runs = [
            MonitoringSimulation(
                depleted_net, "Appro", num_chargers=3,
                horizon_s=self.HORIZON, fault_plan=plan,
            ).run()
            for _ in range(2)
        ]
        assert runs[0].round_longest_delays_s == runs[1].round_longest_delays_s
        assert runs[0].dead_time_s == runs[1].dead_time_s
        assert runs[0].sensors_failed == runs[1].sensors_failed

    def test_hardware_failures_shrink_population(self, depleted_net):
        plan = FaultPlan(
            specs=(SensorFailure(probability=1.0),), seed=1,
            name="attrition-max",
        )
        metrics = MonitoringSimulation(
            depleted_net, "K-EDF", num_chargers=2, horizon_s=self.HORIZON,
            fault_plan=plan,
        ).run()
        assert metrics.sensors_failed
        assert len(set(metrics.sensors_failed)) == len(
            metrics.sensors_failed
        )

    def test_online_fault_plan(self, depleted_net):
        metrics = OnlineMonitoringSimulation(
            depleted_net, num_chargers=3, horizon_s=self.HORIZON,
            fault_plan=get_scenario("breakdown", seed=3),
        ).run()
        assert metrics.fault_rounds > 0
        assert metrics.num_rounds > 0

    def test_overload_floods_request_sets(self, depleted_net):
        base = MonitoringSimulation(
            depleted_net, "K-EDF", num_chargers=3,
            horizon_s=self.HORIZON,
        ).run()
        surged = MonitoringSimulation(
            depleted_net, "K-EDF", num_chargers=3,
            horizon_s=self.HORIZON,
            fault_plan=get_scenario("overload", seed=4),
        ).run()
        assert surged.total_surged > 0
        assert surged.fault_rounds > 0
        # Demand-side only: surging drains healthy sensors into the
        # request set, so rounds get bigger than the control run's
        # (both start with everyone below threshold, so compare the
        # steady state, not the max).
        def mean(xs):
            return sum(xs) / len(xs)

        assert mean(surged.round_request_counts) > mean(
            base.round_request_counts
        )
        assert "surged=" in surged.summary()
        # No supply-side side effects: nothing broke down or bricked.
        assert surged.total_repairs == 0
        assert not surged.sensors_failed

    def test_overload_runs_are_deterministic(self, depleted_net):
        plan = get_scenario("overload", seed=11)
        runs = [
            MonitoringSimulation(
                depleted_net, "Appro", num_chargers=2,
                horizon_s=self.HORIZON, fault_plan=plan,
            ).run()
            for _ in range(2)
        ]
        assert (
            runs[0].round_longest_delays_s
            == runs[1].round_longest_delays_s
        )
        assert runs[0].round_surged == runs[1].round_surged
        assert runs[0].dead_time_s == runs[1].dead_time_s

    def test_online_overload(self, depleted_net):
        metrics = OnlineMonitoringSimulation(
            depleted_net, num_chargers=3, horizon_s=self.HORIZON,
            fault_plan=get_scenario("overload", seed=5),
        ).run()
        assert metrics.total_surged > 0
        assert metrics.num_rounds > 0
