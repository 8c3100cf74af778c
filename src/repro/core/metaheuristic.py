"""Anytime metaheuristic planner: seeded GA over tour assignments.

``Appro`` (Algorithm 1) fixes each sojourn stop's residual duration
``τ'`` and its charging responsibility at insertion time, then commits
to the K-min-max tour partition it happened to build.  This module
keeps the *coverage decisions* (which stop charges which sensors, for
how long) exactly as Appro made them, but searches over the *routing*:
the genome is a permutation of Appro's scheduled stops, decoded into K
depot-rooted tours by the optimal consecutive min-max splitter
(:func:`repro.tours.arrays.split_min_max_ranges` over a dense matrix
of the stops, DESIGN §16).  A small generational GA (order crossover +
segment reversal, tournament selection, elitism) explores permutations,
with periodic Or-opt/2-opt local search injected as memetic offspring.

Anytime semantics, deterministically: the budget is a fitness
*evaluation count*, not a wall clock (no time reads — lint R9 stays
clean).  The stream of evaluated genomes for a given seed is identical
for every budget (offspring of a generation are constructed before any
of them is evaluated, so a smaller budget merely truncates the
stream).  The champion starts as the untouched Appro schedule and is
only replaced by a fully materialised schedule (re-inserted stops +
conflict-resolution waits) whose *final* longest delay is strictly
better, which gives two guarantees the property tests pin down:

* the returned delay is monotonically non-increasing in the budget;
* the returned delay never exceeds Appro's on the same instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.appro import appro_schedule
from repro.core.conflicts import resolve_conflicts
from repro.core.context import PlanningContext
from repro.core.schedule import ChargingSchedule
from repro.energy.charging import ChargerSpec
from repro.geometry.distcache import DistanceCache
from repro.network.topology import WRSN
from repro.tours.arrays import (
    ArrayDistance,
    dense_tour_legs,
    split_min_max_ranges,
)
from repro.tours.improve import or_opt, two_opt

#: Strict-improvement tolerance for fitness and delay comparisons.
_EPS = 1e-12


@dataclass
class MetaheuristicTrace:
    """Anytime progress of one run, for inspection and tests.

    Attributes:
        seed_delay_s: longest delay of the Appro seed schedule.
        best_delay_s: longest delay of the returned champion.
        evaluations: fitness evaluations actually spent (≤ budget).
        improvements: ``(evaluation_index, champion_delay_s)`` per
            champion replacement, in order — the anytime curve.
        local_search_injections: memetic offspring injected.
    """

    seed_delay_s: float = 0.0
    best_delay_s: float = 0.0
    evaluations: int = 0
    improvements: List[Tuple[int, float]] = field(default_factory=list)
    local_search_injections: int = 0


def _order_crossover(
    a: Sequence[int], b: Sequence[int], rng: np.random.Generator
) -> List[int]:
    """OX: keep a random slice of ``a``, fill the rest in ``b``'s order."""
    n = len(a)
    i, j = sorted(int(x) for x in rng.integers(0, n, size=2))
    child: List[int] = [-1] * n
    child[i : j + 1] = a[i : j + 1]
    kept = set(a[i : j + 1])
    fill = iter(x for x in b if x not in kept)
    for p in range(n):
        if p < i or p > j:
            child[p] = next(fill)
    return child


def _reverse_mutation(
    genome: List[int], rng: np.random.Generator
) -> List[int]:
    n = len(genome)
    i, j = sorted(int(x) for x in rng.integers(0, n, size=2))
    out = list(genome)
    out[i : j + 1] = reversed(out[i : j + 1])
    return out


def _distance_cache(schedule: ChargingSchedule) -> DistanceCache:
    """The schedule's distance lookup, which the tour kernels need to
    be a :class:`DistanceCache` (Appro seeds always carry one)."""
    dist = schedule.distance
    if not isinstance(dist, DistanceCache):
        raise TypeError("the seed schedule's distance is not a DistanceCache")
    return dist


#: ``split(perm) -> (ranges, achieved_bound)``: a permutation's min-max
#: split as ``[start, end)`` position ranges into it, and its bound.
Splitter = Callable[[Sequence[int]], Tuple[List[Tuple[int, int]], float]]


def _dense_splitter(
    seed_schedule: ChargingSchedule,
    stops: Sequence[int],
    num_tours: int,
) -> Splitter:
    """The min-max split of a permutation of ``stops`` into
    ``num_tours`` tours, in index space over one dense matrix of the
    stops.

    Bit-identical to ``split_tour_min_max(perm, ...)`` on the seed's
    cache (its bound, and its segments ``perm[s:e]`` before padding),
    without a label lookup per leg. Each distinct permutation is split
    once per splitter; a repeat returns the memoized answer.
    """
    dense = ArrayDistance.from_cache(_distance_cache(seed_schedule), stops)
    duration = seed_schedule.duration
    service_s = np.array(
        [duration[v] for v in dense.codec.labels], dtype=np.float64
    )
    speed = seed_schedule.speed()
    memo: Dict[Tuple[int, ...], Tuple[List[Tuple[int, int]], float]] = {}

    def split(perm: Sequence[int]) -> Tuple[List[Tuple[int, int]], float]:
        key = tuple(perm)
        if key not in memo:
            legs = dense_tour_legs(dense, dense.codec.encode(perm), service_s)
            memo[key] = split_min_max_ranges(legs, num_tours, speed)
        return memo[key]

    return split


def _materialize(
    seed_schedule: ChargingSchedule,
    perm: Sequence[int],
    split: Splitter,
    resolve: bool = True,
) -> ChargingSchedule:
    """Decode a permutation into an executable schedule.

    Works on a copy of the seed: every stop is detached with its fixed
    ``τ'`` and charging responsibility retained, re-attached along the
    splitter's segments, then (unless ``resolve`` is off) the
    wait-inserting conflict resolution restores the
    no-simultaneous-charging constraint.
    """
    dup = seed_schedule.copy()
    # Last stop first: each removal then leaves no later stop to retime.
    for node in reversed(dup.scheduled_stops()):
        dup.remove_stop(node)
    ranges, _ = split(perm)
    for k, (start, end) in enumerate(ranges):
        anchor: Optional[int] = None
        for node in perm[start:end]:
            dup.reinsert_stop(k, anchor, node)
            anchor = node
    if resolve:
        resolve_conflicts(dup)
    return dup


def metaheuristic_schedule(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    lifetimes: Optional[Mapping[int, float]] = None,
    seed: int = 0,
    budget: int = 192,
    population_size: int = 12,
    elite: int = 2,
    tournament: int = 3,
    mutation_rate: float = 0.35,
    local_search_every: int = 4,
    enforce_feasibility: bool = True,
    context: Optional[PlanningContext] = None,
    trace: Optional[MetaheuristicTrace] = None,
) -> ChargingSchedule:
    """Appro-seeded anytime GA over stop permutations.

    Args:
        network: the WRSN (positions, batteries, the depot).
        request_ids: the to-be-charged set ``V_s``.
        num_chargers: ``K`` — number of MCVs.
        charger: MCV parameters; the paper's defaults when omitted.
        lifetimes: accepted for the uniform planner call and ignored:
            the search keeps Appro's deficit-driven coverage decisions
            and only reorders the routing.
        seed: RNG seed; the whole run is a deterministic function of
            ``(instance, seed, budget)``.
        budget: fitness-evaluation budget (anytime knob). Larger
            budgets evaluate a superset of the same genome stream, so
            the returned delay is non-increasing in ``budget``.
        population_size: GA population per generation.
        elite: best genomes carried over unchanged each generation;
            must be below ``population_size``, or a generation would
            hold no offspring.
        tournament: tournament size for parent selection.
        mutation_rate: per-offspring segment-reversal probability.
        local_search_every: inject an Or-opt(2-opt(best)) memetic
            offspring every this many generations (0 disables).
        enforce_feasibility: when off, return the champion *without*
            its final conflict-resolution waits (the search itself
            still scores resolved schedules). The planner-parity
            suite uses this to re-resolve with the legacy engine and
            byte-compare.
        context: the :class:`~repro.core.context.PlanningContext`
            shared by both Appro runs (the seed and, when feasibility
            is not enforced, the unresolved re-run); built here when
            omitted.
        trace: pass a :class:`MetaheuristicTrace` shell to receive the
            anytime curve.

    Returns:
        The champion :class:`~repro.core.schedule.ChargingSchedule` —
        never worse (by final longest delay) than the Appro seed.

    Raises:
        ValueError: when ``elite >= population_size``.
    """
    if elite >= population_size:
        raise ValueError(
            f"elite ({elite}) must be below population_size "
            f"({population_size})"
        )
    if context is None:
        context = PlanningContext(network, request_ids, charger)
    seed_schedule = appro_schedule(
        network,
        request_ids,
        num_chargers,
        charger=charger,
        context=context,
    )
    champion = seed_schedule
    champion_delay = seed_schedule.longest_delay()
    #: Permutation behind the champion; None while the seed leads.
    champion_perm: Optional[List[int]] = None

    def finalize() -> ChargingSchedule:
        if enforce_feasibility:
            return champion
        if champion_perm is None:
            return appro_schedule(
                network,
                request_ids,
                num_chargers,
                charger=charger,
                enforce_feasibility=False,
                context=context,
            )
        return _materialize(seed_schedule, champion_perm, split, resolve=False)

    if trace is not None:
        trace.seed_delay_s = champion_delay
        trace.best_delay_s = champion_delay
        trace.evaluations = 0
        trace.improvements = []
        trace.local_search_injections = 0

    base = seed_schedule.scheduled_stops()
    if len(base) < 3 or budget <= 0 or population_size < 2:
        return finalize()

    positions = seed_schedule.positions
    depot = seed_schedule.depot
    dist = _distance_cache(seed_schedule)
    split = _dense_splitter(seed_schedule, base, num_chargers)

    rng = np.random.default_rng(seed)
    evaluations = 0
    best_fitness = float("inf")
    best_genome: List[int] = list(base)
    #: The last memetic offspring and the ``best_genome`` it refined.
    refined: List[int] = []
    refined_from: Optional[List[int]] = None

    def evaluate(genome: List[int]) -> float:
        """Score one genome; materialise it only on a fitness record."""
        nonlocal evaluations, best_fitness, best_genome
        nonlocal champion, champion_delay, champion_perm
        score = split(genome)[1]
        evaluations += 1
        if score < best_fitness - _EPS:
            best_fitness = score
            best_genome = list(genome)
            candidate = _materialize(seed_schedule, genome, split)
            delay = candidate.longest_delay()
            if delay < champion_delay - _EPS:
                champion = candidate
                champion_delay = delay
                champion_perm = list(genome)
                if trace is not None:
                    trace.improvements.append((evaluations, delay))
        return score

    # Initial population: the seed order, its 2-opt/Or-opt refinements
    # (the memetic head start), then seeded shuffles.
    initial: List[List[int]] = [list(base)]
    initial.append(two_opt(base, positions, depot, dist=dist))
    initial.append(or_opt(initial[1], positions, depot, dist=dist))
    while len(initial) < population_size:
        idx = rng.permutation(len(base))
        initial.append([base[int(i)] for i in idx])
    initial = initial[:population_size]

    scored: List[Tuple[float, List[int]]] = []
    exhausted = False
    for genome in initial:
        if evaluations >= budget:
            exhausted = True
            break
        scored.append((evaluate(genome), genome))

    generation = 0
    while not exhausted and evaluations < budget:
        generation += 1
        ranked = sorted(
            range(len(scored)), key=lambda i: (scored[i][0], i)
        )
        elites = [scored[i] for i in ranked[: max(1, elite)]]

        def pick_parent() -> List[int]:
            picks = rng.integers(0, len(scored), size=tournament)
            winner = min(
                (int(p) for p in picks),
                key=lambda i: (scored[i][0], i),
            )
            return scored[winner][1]

        # Build the whole generation before evaluating any of it: rng
        # consumption then never depends on where the budget runs out,
        # which is what makes a smaller budget a pure prefix.
        offspring: List[List[int]] = []
        if (
            local_search_every > 0
            and generation % local_search_every == 0
        ):
            if refined_from is not best_genome:
                refined = or_opt(
                    two_opt(best_genome, positions, depot, dist=dist),
                    positions,
                    depot,
                    dist=dist,
                )
                refined_from = best_genome
            offspring.append(list(refined))
            if trace is not None:
                trace.local_search_injections += 1
        while len(elites) + len(offspring) < population_size:
            child = _order_crossover(pick_parent(), pick_parent(), rng)
            if float(rng.random()) < mutation_rate:
                child = _reverse_mutation(child, rng)
            offspring.append(child)

        next_scored = list(elites)
        for genome in offspring:
            if evaluations >= budget:
                exhausted = True
                break
            next_scored.append((evaluate(genome), genome))
        if exhausted:
            break
        scored = next_scored

    if trace is not None:
        trace.evaluations = evaluations
        trace.best_delay_s = champion_delay
    return finalize()
