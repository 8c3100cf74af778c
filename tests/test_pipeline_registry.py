"""Planner-registry and parity tests for :mod:`repro.pipeline`.

The contract of the pipeline refactor: every registered planner covers
its whole request set, passes the feasibility validator, round-trips
through the simulator and the fault executor — and produces schedules
byte-identical to the pre-pipeline direct calls.
"""

import numpy as np
import pytest

from repro.baselines.kedf import kedf_schedule
from repro.core.appro import appro_schedule
from repro.network.topology import random_wrsn
from repro.pipeline import (
    PlannedSchedule,
    PlannerInfo,
    PlanningContext,
    get_planner,
    planner_names,
    register_planner,
    run_planner,
)
from repro.sim.faults.executor import execute_with_faults
from repro.sim.faults.specs import NO_FAULTS
from repro.sim.simulator import MonitoringSimulation

ALL_PLANNERS = planner_names()
PAPER_PLANNERS = planner_names(paper_only=True)


@pytest.fixture
def workload():
    """A seeded 50-sensor depleted network with every sensor requesting."""
    net = random_wrsn(num_sensors=50, seed=17)
    rng = np.random.default_rng(19)
    net.set_residuals(
        {
            sid: float(rng.uniform(0.0, 0.2)) * 10_800.0
            for sid in net.all_sensor_ids()
        }
    )
    requests = net.all_sensor_ids()
    return net, requests


class TestRegistry:
    def test_paper_planners_and_order(self):
        assert PAPER_PLANNERS == [
            "Appro", "K-EDF", "NETWRAP", "AA", "K-minMax"
        ]
        assert set(ALL_PLANNERS) >= set(PAPER_PLANNERS) | {"GreedyCover"}

    def test_get_planner_unknown(self):
        with pytest.raises(KeyError, match="unknown planner"):
            get_planner("NotAPlanner")

    def test_duplicate_registration_rejected(self):
        info = get_planner("Appro")
        with pytest.raises(ValueError, match="already registered"):
            register_planner(
                PlannerInfo(name="Appro", build=info.build, multi_node=True)
            )

    def test_only_appro_is_multi_node_of_the_paper_five(self):
        assert [
            name for name in PAPER_PLANNERS if get_planner(name).multi_node
        ] == ["Appro"]

    def test_only_multi_node_planners_produce_charging_schedules(
        self, workload
    ):
        net, requests = workload
        ctx = PlanningContext(net, requests)
        for name in ALL_PLANNERS:
            result = run_planner(name, net, requests, 2, context=ctx)
            assert result.multi_node == get_planner(name).multi_node
            assert hasattr(result.raw, "coverage") == result.multi_node


class TestParity:
    @pytest.mark.parametrize("name", ALL_PLANNERS)
    def test_covers_all_requests_and_validates(self, workload, name):
        net, requests = workload
        ctx = PlanningContext(net, requests)
        result = run_planner(name, net, requests, 3, context=ctx)
        assert isinstance(result, PlannedSchedule)
        assert result.covered_sensors() >= set(requests)
        assert result.validate(requests) == []
        delays = result.tour_delays()
        assert len(delays) == 3
        assert result.longest_delay() == max(delays)

    def test_appro_byte_identical_to_direct_call(self, workload):
        net, requests = workload
        direct = appro_schedule(net, requests, 2)
        piped = run_planner("Appro", net, requests, 2)
        assert piped.longest_delay() == direct.longest_delay()
        assert piped.raw.tours == direct.tours
        assert piped.sensor_finish_times() == direct.sensor_finish_times()

    def test_kedf_byte_identical_to_direct_call(self, workload):
        net, requests = workload
        lifetimes = {sid: 1e9 for sid in requests}
        direct = kedf_schedule(net, requests, 2, lifetimes=lifetimes)
        piped = run_planner("K-EDF", net, requests, 2, lifetimes=lifetimes)
        assert piped.longest_delay() == direct.longest_delay()
        assert piped.tour_delays() == direct.tour_delays()
        assert piped.sensor_finish_times() == direct.sensor_finish_times()

    def test_cold_and_warm_context_agree(self, workload):
        net, requests = workload
        ctx = PlanningContext(net, requests)
        cold = run_planner("Appro", net, requests, 2, context=ctx)
        after_cold = ctx.stats()
        warm = run_planner("Appro", net, requests, 2, context=ctx)
        assert warm.longest_delay() == cold.longest_delay()
        assert warm.sensor_finish_times() == cold.sensor_finish_times()
        # The warm run is served from the memos and the distance cache:
        # it adds hits, and not one miss.
        stats = ctx.stats()
        assert stats["memo_hits"] > after_cold["memo_hits"] > 0
        assert stats["memo_misses"] == after_cold["memo_misses"]
        assert stats["distance_hits"] > after_cold["distance_hits"]
        assert stats["distance_misses"] == after_cold["distance_misses"]

    def test_one_context_serves_the_paper_planners(self, workload):
        """Later planners hit the memos the earlier ones filled."""
        net, requests = workload
        ctx = PlanningContext(net, requests, share_distances=False)
        for name in PAPER_PLANNERS:
            result = run_planner(name, net, requests, 2, context=ctx)
            assert result.longest_delay() > 0
        stats = ctx.stats()
        assert stats["memo_hits"] > 0
        assert stats["distance_hits"] > 0

    def test_context_charger_mismatch_rejected(self, workload):
        net, requests = workload
        from repro.energy.charging import ChargerSpec

        ctx = PlanningContext(net, requests)
        with pytest.raises(ValueError, match="ChargerSpec"):
            run_planner(
                "Appro", net, requests, 2,
                charger=ChargerSpec(travel_speed_mps=2.5), context=ctx,
            )


class TestUniformInterface:
    @pytest.mark.parametrize("name", sorted(PAPER_PLANNERS))
    def test_uniform_signature_and_result(self, depleted_net, name):
        """The simulator's scheduler call: every paper planner takes
        the uniform arguments and no finish offset exceeds the longest
        delay."""
        requests = depleted_net.all_sensor_ids()[:20]
        lifetimes = {sid: 1e6 for sid in requests}
        result = run_planner(
            name, depleted_net, requests, 2, charger=None,
            lifetimes=lifetimes,
        )
        delay = result.longest_delay()
        finishes = result.sensor_finish_times()
        assert delay > 0
        assert set(finishes) >= set(requests)
        assert all(0 <= f <= delay + 1e-6 for f in finishes.values())


class TestRoundTrips:
    @pytest.mark.parametrize("name", PAPER_PLANNERS)
    def test_simulator_round_trip(self, workload, name):
        net, _ = workload
        sim = MonitoringSimulation(
            net, name, num_chargers=2, horizon_s=5 * 86400.0
        )
        metrics = sim.run()
        assert metrics.num_rounds >= 1
        assert metrics.mean_longest_delay_hours > 0

    @pytest.mark.parametrize("name", ALL_PLANNERS)
    def test_fault_executor_round_trip(self, workload, name):
        net, requests = workload
        result = run_planner(name, net, requests, 2)
        outcome = execute_with_faults(result, NO_FAULTS)
        assert outcome.realized_delay_s == pytest.approx(
            result.longest_delay()
        )
        assert set(outcome.sensor_finish_s) >= set(requests)
        assert outcome.repairs == 0
        assert not outcome.deferred_sensors
