"""Byte-parity of the vectorised coverage path against the loop path.

``DiskIndex.within_bulk`` (a KD-tree pair query with an exact
``math.hypot`` filter) replaced per-candidate loops in
``graphs.coverage.coverage_sets`` and ``PlanningContext.coverage_for``.
These tests pin that it agrees with a brute-force :func:`euclidean`
scan — the repo's one distance rule — on seeded random deployments,
on exact-boundary integer cases, and through the context memo.
"""

import numpy as np
import pytest

from repro.geometry.disk_index import DiskIndex
from repro.geometry.distance import euclidean
from repro.graphs.coverage import coverage_sets
from repro.network.topology import random_wrsn
from repro.pipeline import PlanningContext


def _within(points, center, radius_m):
    """Brute-force reference: every label within ``radius_m``."""
    return [
        label
        for label, pos in points.items()
        if euclidean(pos, center) <= radius_m
    ]


def _loop_coverage_sets(candidates, positions, radius_m, targets=None):
    """The loop reference: one brute-force scan per candidate."""
    target_ids = set(positions) if targets is None else set(targets)
    points = {t: positions[t] for t in target_ids}
    result = {}
    for cand in candidates:
        covered = set(_within(points, positions[cand], radius_m))
        covered.add(cand)
        result[cand] = frozenset(covered)
    return result


class TestWithinBulk:
    def test_matches_within_on_seeded_deployments(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            points = {
                i: (float(x), float(y))
                for i, (x, y) in enumerate(rng.uniform(0, 50, size=(80, 2)))
            }
            index = DiskIndex(points)
            centers = [points[i] for i in sorted(points)]
            bulk = index.within_bulk(centers, 2.7)
            for center, row in zip(centers, bulk):
                assert sorted(row) == sorted(_within(points, center, 2.7))

    def test_exact_boundary_is_inclusive(self):
        # (0,0) -> (3,4) is exactly 5.
        points = {0: (0.0, 0.0), 1: (3.0, 4.0)}
        index = DiskIndex(points)
        [row] = index.within_bulk([(0.0, 0.0)], 5.0)
        assert sorted(row) == [0, 1]
        assert sorted(_within(points, (0.0, 0.0), 5.0)) == [0, 1]

    def test_empty_index_and_empty_centers(self):
        index = DiskIndex({})
        assert index.within_bulk([(0.0, 0.0)], 2.0) == [[]]
        full = DiskIndex({0: (0.0, 0.0)})
        assert full.within_bulk([], 2.0) == []

    def test_negative_radius_rejected(self):
        index = DiskIndex({0: (0.0, 0.0)})
        with pytest.raises(ValueError, match="non-negative"):
            index.within_bulk([(0.0, 0.0)], -1.0)

    def test_chunking_covers_all_centers(self):
        # Hundreds of centers in one query; first, middle and last rows.
        points = {i: (float(i % 40), float(i // 40)) for i in range(700)}
        index = DiskIndex(points)
        centers = [points[i] for i in range(700)]
        bulk = index.within_bulk(centers, 3.0)
        assert len(bulk) == 700
        for i in (0, 511, 512, 699):
            assert sorted(bulk[i]) == sorted(_within(points, centers[i], 3.0))


class TestCoverageSetsParity:
    def test_byte_parity_with_loop_version(self):
        for seed in (1, 7, 42):
            net = random_wrsn(num_sensors=120, seed=seed)
            positions = net.positions()
            ids = net.all_sensor_ids()
            vec = coverage_sets(ids, positions, radius_m=2.7)
            ref = _loop_coverage_sets(ids, positions, radius_m=2.7)
            assert vec == ref

    def test_parity_with_targets_subset(self):
        net = random_wrsn(num_sensors=60, seed=3)
        positions = net.positions()
        ids = net.all_sensor_ids()
        candidates = ids[::3]
        targets = ids[: len(ids) // 2]
        vec = coverage_sets(candidates, positions, 2.7, targets=targets)
        ref = _loop_coverage_sets(candidates, positions, 2.7, targets=targets)
        assert vec == ref


class TestContextCoverageParity:
    def test_context_matches_standalone_and_memoizes(self):
        net = random_wrsn(num_sensors=80, seed=9)
        requests = net.all_sensor_ids()
        ctx = PlanningContext(net, requests)
        cands = ctx.sojourn_candidates()
        first = ctx.coverage_for(cands)
        standalone = coverage_sets(
            cands,
            {t: ctx.positions[t] for t in requests},
            ctx.charger.charge_radius_m,
            targets=requests,
        )
        assert first == standalone
        hits_before = ctx.memo_hits
        assert ctx.coverage_for(cands) == first
        assert ctx.memo_hits == hits_before + len(cands)
