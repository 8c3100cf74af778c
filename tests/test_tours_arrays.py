"""Parity and unit tests for the array tour engine (DESIGN §16).

The engine's contract is *byte parity*: every tours function must
return exactly what the retired scalar loops returned — same orders,
same split segments, same achieved-delay floats. Those loops live on
only as the oracle in ``tests/_legacy_tours.py``, mirroring how
``tests/_legacy_conflicts.py`` pins the conflict engine. The
all-planner check compares against ``tests/data/planner_golden.jsonl``,
recorded while both engines were still in the program and agreed.

Regenerate the golden file (only for a deliberate, reviewed change of
planner output) with::

    PYTHONPATH=src python -m tests.test_tours_arrays
"""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.geometry.distcache import DistanceCache
from repro.network.topology import random_wrsn
from repro.pipeline.planner import planner_names, run_planner
from repro.tours.arrays import (
    _OR_OPT_BLOCK,
    ArrayDistance,
    NodeIndexCodec,
    canonical_labels,
    dense_tour_legs,
    range_cost,
    tour_legs,
)
from repro.tours.energy_budget import (
    MCVEnergyModel,
    split_tour_energy_constrained,
)
from repro.tours.improve import or_opt, two_opt
from repro.tours.kminmax import solve_k_minmax_tours
from repro.tours.splitting import greedy_split_with_bound, split_tour_min_max
from repro.tours.tsp import build_tsp_order
from tests._golden_env import env_note
from tests._legacy_tours import (
    legacy_build_tsp_order,
    legacy_greedy_split_with_bound,
    legacy_or_opt,
    legacy_solve_k_minmax_tours,
    legacy_split_tour_energy_constrained,
    legacy_split_tour_min_max,
    legacy_two_opt,
)

PARITY_SEEDS = 100
GOLDEN = Path(__file__).parent / "data" / "planner_golden.jsonl"


def random_instance(seed, max_nodes=40, min_nodes=2):
    """One random labelled instance: positions, depot, service, cache."""
    rng = random.Random(seed)
    n = rng.randint(min_nodes, max_nodes)
    positions = {
        i: (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
        for i in range(n)
    }
    depot = (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
    service_map = {i: rng.uniform(1.0, 300.0) for i in range(n)}
    order = list(range(n))
    rng.shuffle(order)
    dist = DistanceCache(positions, depot)
    return rng, order, positions, depot, service_map, dist


class TestNodeIndexCodec:
    def test_round_trip(self):
        codec = NodeIndexCodec([7, 3, 11])
        idx = codec.encode([11, 7, 3])
        assert idx.dtype == np.int32
        assert codec.decode(idx) == [11, 7, 3]
        assert codec.depot_index == 3

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            NodeIndexCodec([1, 2, 1])

    def test_canonical_labels_sorts(self):
        assert canonical_labels([3, 1, 2]) == (1, 2, 3)


class TestDenseMatrix:
    def test_entries_match_scalar_cache(self):
        _, order, positions, depot, _, dist = random_instance(1)
        matrix = dist.dense_matrix(canonical_labels(order))
        labels = list(canonical_labels(order))
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                assert matrix[i, j] == dist(a, b)
            assert matrix[i, len(labels)] == dist(a, None)
        assert not matrix.flags.writeable

    def test_memoized_per_label_tuple(self):
        _, order, _, _, _, dist = random_instance(2)
        key = canonical_labels(order)
        assert dist.dense_matrix(key) is dist.dense_matrix(key)

    def test_requires_depot(self):
        positions = {1: (0.0, 0.0), 2: (1.0, 0.0)}
        with pytest.raises(ValueError):
            DistanceCache(positions).dense_matrix((1, 2))


class TestDenseBackend:
    def test_rejects_depotless_cache_and_duplicate_labels(self):
        _, order, positions, depot, _, dist = random_instance(5)
        with pytest.raises(ValueError):
            ArrayDistance.from_cache(DistanceCache(positions), order)
        with pytest.raises(ValueError):
            ArrayDistance.from_cache(dist, [order[0], order[0]])
        with pytest.raises(ValueError):
            two_opt(order + order[:1], positions, depot, dist=dist)
        with pytest.raises(ValueError):
            split_tour_min_max(
                order, 2, positions, depot, 1.0, lambda v: 1.0,
                dist=DistanceCache(positions),
            )

    def test_permuted_orders_share_one_matrix(self):
        _, order, _, _, _, dist = random_instance(6)
        a = ArrayDistance.from_cache(dist, order)
        b = ArrayDistance.from_cache(dist, sorted(order))
        for x in order:
            for y in order:
                ia, ja = a.codec.encode([x])[0], a.codec.encode([y])[0]
                ib, jb = b.codec.encode([x])[0], b.codec.encode([y])[0]
                assert a.matrix[ia, ja] == b.matrix[ib, jb]


class TestDenseTourLegs:
    def test_matches_label_legs(self):
        _, order, _, _, service_map, dist = random_instance(7)
        dense = ArrayDistance.from_cache(dist, sorted(order))
        service = np.array(
            [service_map[label] for label in dense.codec.labels]
        )
        legs = dense_tour_legs(dense, dense.codec.encode(order), service)
        want = tour_legs(dist, order, service_map.__getitem__)
        for field in ("start_m", "chain_m", "closing_m", "service_s"):
            assert getattr(legs, field).tobytes() == (
                getattr(want, field).tobytes()
            ), field

        travel = dist(None, order[0])
        for a, b in zip(order, order[1:]):
            travel += dist(a, b)
        travel += dist(order[-1], None)
        assert range_cost(legs, 0, len(order), 2.0) == pytest.approx(
            travel / 2.0 + sum(service_map[v] for v in order)
        )

    def test_empty_order(self):
        _, order, _, _, _, dist = random_instance(8)
        dense = ArrayDistance.from_cache(dist, sorted(order))
        legs = dense_tour_legs(
            dense, dense.codec.encode([]), np.zeros(len(order))
        )
        assert len(legs) == 0
        assert legs.chain_m.size == 0


class TestKernelParity:
    """Array kernels vs the legacy scalar oracle, 100 random seeds."""

    @pytest.mark.parametrize("seed", range(PARITY_SEEDS))
    def test_two_opt_and_or_opt(self, seed):
        _, order, positions, depot, _, dist = random_instance(seed)
        legacy = legacy_two_opt(order, positions, depot, dist=dist)
        legacy = legacy_or_opt(legacy, positions, depot, dist=dist)
        fast = two_opt(order, positions, depot, dist=dist)
        fast = or_opt(fast, positions, depot, dist=dist)
        assert fast == legacy

    @pytest.mark.parametrize("seed", range(PARITY_SEEDS))
    def test_split_min_max(self, seed):
        rng, order, positions, depot, service_map, dist = random_instance(
            seed
        )
        k = rng.randint(1, 4)
        speed = rng.uniform(0.5, 3.0)
        service = service_map.__getitem__
        legacy = legacy_split_tour_min_max(
            order, k, positions, depot, speed, service, dist=dist
        )
        fast = split_tour_min_max(
            order, k, positions, depot, speed, service, dist=dist
        )
        assert fast == legacy
        # Legs gathered from a matrix over the nodes in another order
        # (as the backbone's is) give the same split, bound included.
        gathered = split_tour_min_max(
            order, k, positions, depot, speed, service,
            dense=ArrayDistance.from_cache(dist, order[::-1]),
        )
        assert gathered == legacy

    @pytest.mark.parametrize("seed", range(PARITY_SEEDS))
    def test_greedy_split_with_bound(self, seed):
        rng, order, positions, depot, service_map, dist = random_instance(
            seed
        )
        speed = rng.uniform(0.5, 3.0)
        service = service_map.__getitem__
        # A bound between the single-node floor and the full-tour cost
        # exercises both feasible and infeasible outcomes.
        bound = rng.uniform(50.0, 2000.0)
        legacy = legacy_greedy_split_with_bound(
            order, bound, positions, depot, speed, service, dist=dist
        )
        fast = greedy_split_with_bound(
            order, bound, positions, depot, speed, service, dist=dist
        )
        assert fast == legacy

    @pytest.mark.parametrize("seed", range(PARITY_SEEDS))
    def test_split_energy_constrained(self, seed):
        rng, order, positions, depot, service_map, dist = random_instance(
            seed, max_nodes=25
        )
        k = rng.randint(1, 4)
        speed = rng.uniform(0.5, 3.0)
        service = service_map.__getitem__
        model = MCVEnergyModel(
            battery_j=rng.uniform(5e3, 5e5),
            travel_j_per_m=rng.uniform(1.0, 20.0),
            transfer_efficiency=rng.uniform(0.3, 1.0),
        )
        legacy = legacy_split_tour_energy_constrained(
            order, k, positions, depot, speed, service, model, dist=dist
        )
        fast = split_tour_energy_constrained(
            order, k, positions, depot, speed, service, model, dist=dist
        )
        assert fast == legacy

    @pytest.mark.parametrize("seed", range(PARITY_SEEDS))
    def test_tsp_constructions(self, seed):
        _, order, positions, depot, _, dist = random_instance(
            seed, max_nodes=30
        )
        for method in (
            "nearest_neighbor", "greedy_edge", "double_mst", "christofides"
        ):
            legacy = legacy_build_tsp_order(
                order, positions, depot, method=method, dist=dist
            )
            fast = build_tsp_order(
                order, positions, depot, method=method, dist=dist
            )
            assert fast == legacy, method

    @pytest.mark.parametrize("seed", range(0, PARITY_SEEDS, 10))
    def test_solve_k_minmax_end_to_end(self, seed):
        rng, order, positions, depot, service_map, dist = random_instance(
            seed
        )
        k = rng.randint(1, 3)
        speed = rng.uniform(0.5, 3.0)
        service = service_map.__getitem__
        for method in ("nearest_neighbor", "greedy_edge", "christofides"):
            legacy = legacy_solve_k_minmax_tours(
                order, positions, depot, k, speed, service,
                tsp_method=method, dist=dist,
            )
            fast = solve_k_minmax_tours(
                order, positions, depot, k, speed, service,
                tsp_method=method, dist=dist,
            )
            assert fast == legacy, method


def lattice_instance(seed, n, spacing_m=5.0):
    """``n`` distinct cells of a ``spacing_m`` lattice, depot on a cell:
    many legs and insertion costs tie exactly."""
    rng = random.Random(seed)
    side = int(n**0.5) + 2
    cells = [
        (spacing_m * a, spacing_m * b)
        for a in range(side)
        for b in range(side)
    ]
    picked = rng.sample(cells, n + 1)
    positions = dict(enumerate(picked[:n]))
    return rng, positions, picked[n], DistanceCache(positions, picked[n])


class TestOrOptBlocks:
    """Or-opt on tours longer than one scoring block of
    ``_OR_OPT_BLOCK`` segment positions, and on the shortest tours,
    against the scalar oracle ``legacy_or_opt``."""

    @pytest.mark.parametrize(
        "n,construction",
        [(100, None), (160, None), (240, "nearest_neighbor"),
         (400, "nearest_neighbor")],
    )
    def test_uniform_fields(self, n, construction):
        rng = random.Random(n)
        positions = {
            i: (rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0))
            for i in range(n)
        }
        depot = (rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0))
        dist = DistanceCache(positions, depot)
        order = list(positions)
        rng.shuffle(order)
        if construction is not None:
            order = build_tsp_order(
                order, positions, depot, construction, dist=dist
            )
        fast = or_opt(order, positions, depot, dist=dist)
        assert fast == legacy_or_opt(order, positions, depot, dist=dist)
        assert fast != order

    @pytest.mark.parametrize(
        "n,construction", [(130, None), (200, "nearest_neighbor")]
    )
    def test_lattices_with_tied_distances(self, n, construction):
        rng, positions, depot, dist = lattice_instance(n, n)
        order = list(positions)
        rng.shuffle(order)
        if construction is not None:
            order = build_tsp_order(
                order, positions, depot, construction, dist=dist
            )
        fast = or_opt(order, positions, depot, dist=dist)
        assert fast == legacy_or_opt(order, positions, depot, dist=dist)

    def test_moves_in_the_middle_of_a_block(self):
        """Nodes on a ray from the depot, visited outward, with two
        neighbouring pairs swapped. Every other removal gains exactly
        0, so the first move is at row ``1.5 * _OR_OPT_BLOCK`` of the
        first pass and the second in the middle of the block restarted
        at that row."""
        n = 3 * _OR_OPT_BLOCK
        first = _OR_OPT_BLOCK + _OR_OPT_BLOCK // 2
        second = first + _OR_OPT_BLOCK // 2 + 3
        positions = {k: (5.0 * k, 0.0) for k in range(1, n + 1)}
        depot = (0.0, 0.0)
        order = list(range(1, n + 1))
        for row in (first, second):
            order[row], order[row + 1] = order[row + 1], order[row]
        dist = DistanceCache(positions, depot)
        fast = or_opt(order, positions, depot, dist=dist)
        assert fast == legacy_or_opt(order, positions, depot, dist=dist)
        assert fast == list(range(1, n + 1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_tiny_tours(self, n, seed):
        _, order, positions, depot, _, dist = random_instance(
            seed, max_nodes=n, min_nodes=n
        )
        fast = or_opt(order, positions, depot, dist=dist)
        assert fast == legacy_or_opt(order, positions, depot, dist=dist)
        rng, positions, depot, dist = lattice_instance(seed, n, 1.0)
        order = list(positions)
        rng.shuffle(order)
        fast = or_opt(order, positions, depot, dist=dist)
        assert fast == legacy_or_opt(order, positions, depot, dist=dist)


def planner_case(seed):
    """Every planner's objective and tour delays (as ``float.hex``) on
    the seed's network; ``K`` rotates through {1, 2, 3}. One line of
    the golden file."""
    k = seed % 3 + 1
    network = random_wrsn(18, seed=seed, initial_fraction=0.15)
    requests = network.all_sensor_ids()[: 12 + seed % 5]
    planners = {}
    for name in planner_names():
        plan = run_planner(name, network, requests, k)
        planners[name] = {
            "longest_delay": plan.longest_delay().hex(),
            "tour_delays": [d.hex() for d in plan.tour_delays()],
        }
    return {
        "seed": seed, "k": k, "requests": len(requests), "planners": planners
    }


class TestPlannerParity:
    """All registered planners over the 100-seed corpus, against the
    golden file: the objective and the per-tour delays must be
    byte-identical to what both tour engines produced before the
    scalar one was retired."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN, encoding="utf-8") as src:
            return [json.loads(line) for line in src]

    @pytest.mark.parametrize("seed", range(PARITY_SEEDS))
    def test_all_planners(self, seed, golden):
        assert planner_case(seed) == golden[seed], env_note()


def write_golden(path=GOLDEN):
    """Record :func:`planner_case` for every seed into ``path``."""
    with open(path, "w", encoding="utf-8") as out:
        for seed in range(PARITY_SEEDS):
            out.write(json.dumps(planner_case(seed), sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden(*sys.argv[1:])
