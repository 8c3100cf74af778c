"""Unit tests for :mod:`repro.core.context`."""

import numpy as np
import pytest

from repro.core.appro import appro_schedule
from repro.energy.charging import ChargerSpec, full_charge_time
from repro.geometry.deployment import Field
from repro.geometry.disk_index import DiskIndex
from repro.graphs.mis import is_independent_set
from repro.graphs.unit_disk import build_charging_graph
from repro.io import dump_jsonl_line, schedule_to_dict
from repro.network.topology import random_wrsn
from repro.pipeline import (
    PlanningContext,
    planner_names,
    run_planner,
    shared_distance_cache,
)
from tests._legacy_graphs import assert_same_rows, nx_build_charging_graph


class TestConstruction:
    def test_requests_are_sorted_and_deduplicated(self, depleted_net):
        ctx = PlanningContext(depleted_net, [5, 3, 3, 1])
        assert ctx.requests == (1, 3, 5)

    def test_unknown_request_id_raises(self, depleted_net):
        with pytest.raises(ValueError, match="not in the network"):
            PlanningContext(depleted_net, [0, 10_000])

    def test_default_charger_is_paper_spec(self, depleted_net):
        ctx = PlanningContext(depleted_net, depleted_net.all_sensor_ids())
        assert ctx.charger == ChargerSpec()


class TestValidateFor:
    def test_accepts_matching_workload(self, depleted_net):
        requests = depleted_net.all_sensor_ids()[:10]
        ctx = PlanningContext(depleted_net, requests)
        ctx.validate_for(depleted_net, list(reversed(requests)), ctx.charger)

    def test_rejects_other_network(self, depleted_net, small_net):
        ctx = PlanningContext(depleted_net, [0, 1])
        with pytest.raises(ValueError, match="different network"):
            ctx.validate_for(small_net, [0, 1], ctx.charger)

    def test_rejects_other_request_set(self, depleted_net):
        ctx = PlanningContext(depleted_net, [0, 1])
        with pytest.raises(ValueError, match="different request set"):
            ctx.validate_for(depleted_net, [0, 1, 2], ctx.charger)

    def test_rejects_other_charger(self, depleted_net):
        ctx = PlanningContext(depleted_net, [0, 1])
        other = ChargerSpec(travel_speed_mps=9.9)
        with pytest.raises(ValueError, match="different ChargerSpec"):
            ctx.validate_for(depleted_net, [0, 1], other)


class TestMemoizedValues:
    def test_charge_times_match_eq1(self, depleted_net):
        requests = depleted_net.all_sensor_ids()[:15]
        ctx = PlanningContext(depleted_net, requests)
        times = ctx.charge_times_for(requests)
        for sid in requests:
            sensor = depleted_net.sensor(sid)
            assert times[sid] == full_charge_time(
                sensor.capacity_j, sensor.residual_j,
                ctx.charger.charge_rate_w,
            )

    def test_charging_graph_matches_direct_construction(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        ctx = PlanningContext(depleted_net, requests)
        direct = build_charging_graph(
            depleted_net.positions(),
            ctx.charger.charge_radius_m,
            nodes=requests,
        )
        assert ctx.charging_graph.nodes == direct.nodes
        for node in direct.nodes:
            assert ctx.charging_graph.neighbors(node) == direct.neighbors(node)
        assert_same_rows(
            ctx.charging_graph,
            nx_build_charging_graph(
                depleted_net.positions(),
                ctx.charger.charge_radius_m,
                nodes=requests,
            ),
        )

    def test_sojourn_candidates_are_independent_in_gc(self, depleted_net):
        ctx = PlanningContext(depleted_net, depleted_net.all_sensor_ids())
        candidates = ctx.sojourn_candidates()
        assert is_independent_set(ctx.charging_graph, candidates)

    def test_core_is_independent_in_h(self, depleted_net):
        ctx = PlanningContext(depleted_net, depleted_net.all_sensor_ids())
        core = ctx.conflict_free_core()
        assert core
        assert is_independent_set(ctx.auxiliary_graph(), core)

    def test_coverage_contains_candidate_itself(self, depleted_net):
        ctx = PlanningContext(depleted_net, depleted_net.all_sensor_ids())
        candidates = ctx.sojourn_candidates()
        coverage = ctx.coverage_for(candidates)
        for cand, covered in coverage.items():
            assert cand in covered

    def test_coverage_sets_iterate_like_the_index_query(self):
        """Requested candidates take ``N_c⁺`` from their ``G_c`` row,
        the others from the disk index; either way the frozenset is
        built in the index query's order, so it iterates the same."""
        net = random_wrsn(num_sensors=400, field=Field(30.0, 30.0), seed=5)
        requests = net.all_sensor_ids()[::2]
        ctx = PlanningContext(net, requests)
        candidates = net.all_sensor_ids()[::3]
        assert any(c in requests for c in candidates)
        assert any(c not in requests for c in candidates)
        positions = net.positions()
        radius_m = ctx.charger.charge_radius_m
        rows = DiskIndex({t: positions[t] for t in ctx.requests}).within_bulk(
            [positions[c] for c in candidates], radius_m
        )
        coverage = ctx.coverage_for(candidates)
        assert list(coverage) == candidates
        for cand, row in zip(candidates, rows):
            covered = set(row)
            covered.add(cand)
            assert list(coverage[cand]) == list(frozenset(covered))

    def test_second_access_hits_the_memo(self, depleted_net):
        ctx = PlanningContext(depleted_net, depleted_net.all_sensor_ids())
        ctx.conflict_free_core()
        misses = ctx.memo_misses
        ctx.conflict_free_core()
        ctx.sojourn_candidates()
        ctx.auxiliary_graph()
        assert ctx.memo_misses == misses
        assert ctx.memo_hits > 0

    def test_sensor_stop_groups_invert_coverage(self, depleted_net):
        ctx = PlanningContext(depleted_net, depleted_net.all_sensor_ids())
        candidates = ctx.sojourn_candidates()
        coverage = ctx.coverage_for(candidates)
        groups = ctx.sensor_stop_groups(candidates)
        for cand, covered in coverage.items():
            for sensor in covered:
                assert cand in groups[sensor]
        for sensor, members in groups.items():
            for cand in members:
                assert sensor in coverage[cand]

    def test_sensor_stop_groups_are_memoized(self, depleted_net):
        ctx = PlanningContext(depleted_net, depleted_net.all_sensor_ids())
        candidates = ctx.sojourn_candidates()
        first = ctx.sensor_stop_groups(candidates)
        hits = ctx.memo_hits
        # Order and duplicates must not defeat the memo key.
        again = ctx.sensor_stop_groups(
            list(reversed(candidates)) + [candidates[0]]
        )
        assert again is first
        assert ctx.memo_hits == hits + 1
        assert ctx.stats()["stop_group_indexes"] == 1

    def test_minmax_tours_returns_defensive_copies(self, depleted_net):
        requests = depleted_net.all_sensor_ids()[:12]
        ctx = PlanningContext(depleted_net, requests)
        service = ctx.charge_times_for(requests)
        tours, delay = ctx.minmax_tours(requests, 2, service)
        assert delay > 0
        tours[0].append(-1)
        again, again_delay = ctx.minmax_tours(requests, 2, service)
        assert -1 not in again[0]
        assert again_delay == delay
        assert ctx.stats()["minmax_solutions"] == 1


class TestInvalidate:
    def test_unknown_sensor_rejected(self, depleted_net):
        ctx = PlanningContext(depleted_net, [0, 1])
        with pytest.raises(ValueError, match="not in the network"):
            ctx.invalidate([0, 99_999])

    def test_counter_appears_in_stats(self, depleted_net):
        ctx = PlanningContext(depleted_net, [0, 1, 2])
        assert ctx.stats()["invalidations"] == 0
        ctx.invalidate([0])
        ctx.invalidate([1, 2])
        assert ctx.stats()["invalidations"] == 2

    def test_charge_time_recomputed_after_residual_change(
        self, depleted_net
    ):
        ctx = PlanningContext(depleted_net, depleted_net.all_sensor_ids())
        sid = ctx.requests[0]
        stale = ctx.charge_time(sid)
        sensor = depleted_net.sensor(sid)
        depleted_net.set_residuals({sid: 0.5 * sensor.capacity_j})
        # Without invalidation the memo serves the stale value.
        assert ctx.charge_time(sid) == stale
        ctx.invalidate([sid])
        fresh = ctx.charge_time(sid)
        assert fresh != stale
        assert fresh == full_charge_time(
            sensor.capacity_j, sensor.residual_j, ctx.charger.charge_rate_w
        )

    def test_only_touched_coverage_and_groups_dropped(self, depleted_net):
        ctx = PlanningContext(depleted_net, depleted_net.all_sensor_ids())
        candidates = ctx.sojourn_candidates()
        coverage = ctx.coverage_for(candidates)
        ctx.sensor_stop_groups(candidates)
        changed = next(iter(coverage[candidates[0]]))
        touched = {
            cand
            for cand, covered in coverage.items()
            if cand == changed or changed in covered
        }
        assert touched and len(touched) < len(coverage)
        ctx.invalidate([changed])
        stats = ctx.stats()
        assert stats["coverage_entries"] == len(coverage) - len(touched)
        # The one memoized group table mentions the sensor -> dropped.
        assert stats["stop_group_indexes"] == 0
        # Recomputation restores exactly the cold-context values.
        cold = PlanningContext(depleted_net, depleted_net.all_sensor_ids())
        assert ctx.coverage_for(candidates) == cold.coverage_for(candidates)
        assert ctx.sensor_stop_groups(candidates) == (
            cold.sensor_stop_groups(candidates)
        )

    def test_geometry_memos_survive(self, depleted_net):
        ctx = PlanningContext(depleted_net, depleted_net.all_sensor_ids())
        graph = ctx.charging_graph
        grid = ctx.disk_index
        mis = ctx.sojourn_candidates()
        ctx.invalidate(list(ctx.requests))
        assert ctx.charging_graph is graph
        assert ctx.disk_index is grid
        misses = ctx.memo_misses
        assert ctx.sojourn_candidates() == mis
        assert ctx.memo_misses == misses  # served from the memo


class TestInvalidateReplanParity:
    """Satellite acceptance: ``invalidate`` followed by a replan is
    byte-identical to a cold context rebuild — across 100 seeds
    covering every registered planner and K in {1, 2, 3}."""

    def test_100_seed_warm_cold_parity(self):
        planners = planner_names()
        seen = set()
        for seed in range(100):
            net = random_wrsn(num_sensors=16 + seed % 8, seed=3000 + seed)
            rng = np.random.default_rng(4000 + seed)
            ids = net.all_sensor_ids()
            net.set_residuals(
                {
                    sid: float(rng.uniform(0.05, 0.2))
                    * net.sensor(sid).capacity_j
                    for sid in ids
                }
            )
            planner = planners[seed % len(planners)]
            k = 1 + (seed // len(planners)) % 3
            seen.add((planner, k))

            warm_ctx = PlanningContext(net, ids)
            run_planner(planner, net, ids, k, context=warm_ctx)

            changed = [sid for sid in ids if rng.random() < 1 / 3]
            changed = changed or [ids[0]]
            net.set_residuals(
                {
                    sid: float(rng.uniform(0.05, 0.2))
                    * net.sensor(sid).capacity_j
                    for sid in changed
                }
            )
            warm_ctx.invalidate(changed)
            warm = run_planner(planner, net, ids, k, context=warm_ctx)
            cold = run_planner(
                planner, net, ids, k, context=PlanningContext(net, ids)
            )
            warm_bytes = dump_jsonl_line(
                schedule_to_dict(warm, algorithm=planner)
            )
            cold_bytes = dump_jsonl_line(
                schedule_to_dict(cold, algorithm=planner)
            )
            assert warm_bytes == cold_bytes, (
                f"seed {seed}: warm replan diverged from cold rebuild "
                f"({planner}, K={k}, {len(changed)} changed)"
            )
        # The seed sweep must have covered the full grid.
        assert seen == {
            (p, k) for p in planners for k in (1, 2, 3)
        }


def probe_state(ctx: PlanningContext):
    """Force every residual-dependent memo and snapshot what it holds:
    charge times, sojourn candidates, coverage rows, sensor->stop
    groups and the conflict-free core."""
    ids = list(ctx.requests)
    times = ctx.charge_times_for(ids)
    candidates = ctx.sojourn_candidates()
    coverage = ctx.coverage_for(candidates)
    groups = ctx.sensor_stop_groups(candidates)
    return (
        [times[sid] for sid in ids],
        list(candidates),
        [sorted(coverage[c]) for c in candidates],
        {s: list(groups[s]) for s in sorted(groups)},
        list(ctx.conflict_free_core()),
    )


class TestRepeatedInvalidation:
    """One persistent context invalidated round after round stays equal
    to a cold rebuild: its planning state after every ``invalidate``
    and its replan bytes."""

    ROUNDS = 3

    def test_three_rounds_match_cold_rebuilds(self):
        net = random_wrsn(num_sensors=120, seed=0)
        rng = np.random.default_rng(1)
        ids = net.all_sensor_ids()
        net.set_residuals(
            {
                sid: float(rng.uniform(0.05, 0.2))
                * net.sensor(sid).capacity_j
                for sid in ids
            }
        )
        warm_ctx = PlanningContext(net, ids)
        probe_state(warm_ctx)
        run_planner("Appro", net, ids, 2, context=warm_ctx)

        rng = np.random.default_rng(2)
        for round_index in range(self.ROUNDS):
            changed = [sid for sid in ids if rng.random() < 1 / 3]
            changed = changed or [ids[0]]
            net.set_residuals(
                {
                    sid: float(rng.uniform(0.05, 0.2))
                    * net.sensor(sid).capacity_j
                    for sid in changed
                }
            )
            warm_ctx.invalidate(changed)
            # Cold rebuilds run on copies: fresh memos and a fresh
            # distance cache.
            cold_ctx = PlanningContext(net.copy(), ids)
            assert probe_state(warm_ctx) == probe_state(cold_ctx), (
                f"round {round_index}: state diverged "
                f"({len(changed)} changed)"
            )
            warm = run_planner("Appro", net, ids, 2, context=warm_ctx)
            cold = run_planner("Appro", net.copy(), ids, 2)
            assert dump_jsonl_line(
                schedule_to_dict(warm, algorithm="Appro")
            ) == dump_jsonl_line(
                schedule_to_dict(cold, algorithm="Appro")
            ), f"round {round_index}: replan diverged"
        assert warm_ctx.invalidations == self.ROUNDS


class TestSharedDistances:
    def test_contexts_on_one_network_share_the_cache(self, depleted_net):
        a = PlanningContext(depleted_net, [0, 1, 2])
        b = PlanningContext(depleted_net, [3, 4, 5])
        assert a.distance is b.distance
        assert a.distance is shared_distance_cache(depleted_net)

    def test_different_networks_get_different_caches(
        self, depleted_net, small_net
    ):
        assert shared_distance_cache(depleted_net) is not (
            shared_distance_cache(small_net)
        )

    def test_context_and_appro_share_the_networks_positions(
        self, depleted_net
    ):
        ctx = PlanningContext(depleted_net, [0, 1, 2])
        assert ctx.positions is depleted_net.positions()
        schedule = appro_schedule(depleted_net, [0, 1, 2], 1, context=ctx)
        assert schedule.positions is ctx.positions

    def test_a_copy_starts_cold(self, depleted_net):
        """Nothing geometric but the points crosses a copy: a plan on
        ``network.copy()`` starts with an empty distance cache."""
        warm = PlanningContext(depleted_net, [0, 1, 2])
        warm.distance(0, 1)
        clone = depleted_net.copy()
        cold = PlanningContext(clone, [0, 1, 2])
        assert cold.distance is not warm.distance
        assert len(cold.distance) == 0
        assert cold.positions is not warm.positions
