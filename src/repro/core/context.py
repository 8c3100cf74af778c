"""The :class:`PlanningContext` — memoized planning state.

Every planner over the same ``(WRSN, request set, ChargerSpec)`` triple
recomputes the same expensive structures: the pairwise distances, the
charging graph ``G_c``, the MIS of sojourn candidates, per-candidate
coverage sets ``N_c⁺(v)``, the auxiliary conflict graph ``H`` and its
conflict-free core, the Eq. (1) full-charge times, and the ``K``
min-max tour solutions. The context computes each of them lazily, once,
and hands the memoized result to whichever planner asks — so comparing
five algorithms on one workload (the bench/compare loops) or re-running
one algorithm with different ``K`` pays the construction cost once.

It is also the only place these structures are built: every planner
(``Appro``, the baselines, GreedyCover, Metaheuristic) takes an
optional context and builds its own when given none, so a planner has
one code path whether it runs alone or through the pipeline.

The distance cache is additionally shared *across* contexts built on
the same :class:`~repro.network.topology.WRSN` (keyed weakly, so
networks are collected normally): sensor positions never change between
simulation rounds, while residual energies — and hence request sets and
charge times — do. Each round's context therefore reuses every distance
computed by earlier rounds. A caller that wants a cold cache builds its
context on ``network.copy()``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.energy.charging import ChargerSpec, full_charge_time
from repro.geometry.disk_index import DiskIndex
from repro.geometry.distcache import DistanceCache
from repro.graphs.adjacency import NeighborRows
from repro.graphs.auxiliary import build_auxiliary_graph
from repro.graphs.mis import maximal_independent_set
from repro.graphs.unit_disk import build_charging_graph
from repro.network.topology import WRSN
from repro.tours.kminmax import solve_k_minmax_tours

#: Per-network shared distance caches. Positions are static for the
#: lifetime of a WRSN, so every context on the same network — across
#: simulation rounds, planners and ``K`` values — can share one cache.
_SHARED_DISTANCES: "WeakKeyDictionary[WRSN, DistanceCache]" = (
    WeakKeyDictionary()
)


def shared_distance_cache(network: WRSN) -> DistanceCache:
    """The process-wide distance cache for ``network`` (created once)."""
    cache = _SHARED_DISTANCES.get(network)
    if cache is None:
        cache = DistanceCache(network.positions(), network.depot.position)
        _SHARED_DISTANCES[network] = cache
    return cache


class PlanningContext:
    """Lazily-computed, memoized planning state for one workload.

    Args:
        network: the WRSN instance (positions, batteries, depot).
        request_ids: the to-be-charged set ``V_s``.
        charger: MCV parameters; the paper defaults when omitted.

    Raises:
        ValueError: when a request id is absent from the network.
    """

    def __init__(
        self,
        network: WRSN,
        request_ids: Sequence[int],
        charger: Optional[ChargerSpec] = None,
    ):
        self.network = network
        self.requests: Tuple[int, ...] = tuple(sorted(set(request_ids)))
        unknown = [r for r in self.requests if r not in network]
        if unknown:
            raise ValueError(f"request ids not in the network: {unknown}")
        self.charger = charger if charger is not None else ChargerSpec()
        self.positions = network.positions()
        self.depot = network.depot.position
        self.distance: DistanceCache = shared_distance_cache(network)
        self.memo_hits = 0
        self.memo_misses = 0
        self.invalidations = 0
        self._charge_times: Dict[int, float] = {}
        self._charging_graph: Optional[NeighborRows] = None
        self._disk_index: Optional[DiskIndex] = None
        self._coverage: Dict[int, FrozenSet[int]] = {}
        self._mis: Dict[Tuple[str, int], List[int]] = {}
        self._stop_groups: Dict[
            Tuple[int, ...], Dict[int, Tuple[int, ...]]
        ] = {}
        self._aux: Dict[Tuple[str, int], NeighborRows] = {}
        self._core: Dict[Tuple[str, int], List[int]] = {}
        self._minmax: Dict[Any, Tuple[List[List[int]], float]] = {}

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------

    def validate_for(
        self,
        network: WRSN,
        requests: Sequence[int],
        charger: ChargerSpec,
    ) -> None:
        """Check that a planner call matches this context's workload.

        Raises:
            ValueError: when the network, request set or charger the
                planner was invoked with differ from the ones this
                context memoized its state for.
        """
        if network is not self.network:
            raise ValueError(
                "PlanningContext was built for a different network instance"
            )
        if tuple(sorted(set(requests))) != self.requests:
            raise ValueError(
                "PlanningContext was built for a different request set"
            )
        if charger != self.charger:
            raise ValueError(
                "PlanningContext was built for a different ChargerSpec"
            )

    def invalidate(self, sensor_ids: Sequence[int]) -> None:
        """Delta-invalidate the memos that depend on changed sensors.

        The online simulation mutates residual energies between
        replans; only the residual-dependent state of the *changed*
        sensors goes stale. This drops exactly that state — the
        Eq. (1) charge times of the changed sensors, every memoized
        coverage set whose disk touches a changed sensor, and every
        ``sensor_stop_groups`` table that mentions one — and leaves the
        geometry intact: the distance cache, ``G_c``, the disk index
        and the MIS / auxiliary-graph / core memos are all
        position-derived and survive untouched.

        The ``_minmax`` memo keys embed every service weight, so stale
        tour solutions key-miss naturally once the changed charge times
        are recomputed — a warm replan after ``invalidate`` is
        byte-identical to a cold context rebuild (pinned by the
        100-seed parity property test and the ``sanitize --online``
        matrix).

        Args:
            sensor_ids: sensors whose residual energy changed.

        Raises:
            ValueError: when an id is absent from the network.
        """
        changed = frozenset(sensor_ids)
        unknown = sorted(s for s in changed if s not in self.network)
        if unknown:
            raise ValueError(f"sensor ids not in the network: {unknown}")
        self.invalidations += 1
        for sid in changed:
            self._charge_times.pop(sid, None)
        stale_coverage = [
            cand
            for cand, covered in self._coverage.items()
            if cand in changed or covered & changed
        ]
        for cand in stale_coverage:
            del self._coverage[cand]
        stale_groups = [
            key
            for key, table in self._stop_groups.items()
            if changed.intersection(key)
            or any(sensor in table for sensor in changed)
        ]
        for key in stale_groups:
            del self._stop_groups[key]

    # ------------------------------------------------------------------
    # Charge times (Eq. 1)
    # ------------------------------------------------------------------

    def charge_time(self, sensor_id: int) -> float:
        """Memoized Eq. (1) full-charge time of one sensor."""
        cached = self._charge_times.get(sensor_id)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        sensor = self.network.sensor(sensor_id)
        value = full_charge_time(
            sensor.capacity_j, sensor.residual_j, self.charger.charge_rate_w
        )
        self._charge_times[sensor_id] = value
        return value

    def charge_times_for(self, sensor_ids: Sequence[int]) -> Dict[int, float]:
        """Eq. (1) full-charge time per sensor, as a fresh dict."""
        return {sid: self.charge_time(sid) for sid in sensor_ids}

    # ------------------------------------------------------------------
    # Graph structures (steps 1-4 of Algorithm 1)
    # ------------------------------------------------------------------

    @property
    def charging_graph(self) -> NeighborRows:
        """``G_c``: the unit-disk charging graph over the request set."""
        if self._charging_graph is None:
            self.memo_misses += 1
            self._charging_graph = build_charging_graph(
                self.positions,
                self.charger.charge_radius_m,
                nodes=list(self.requests),
            )
        else:
            self.memo_hits += 1
        return self._charging_graph

    @property
    def disk_index(self) -> DiskIndex:
        """Spatial index over the request positions."""
        if self._disk_index is None:
            self.memo_misses += 1
            self._disk_index = DiskIndex(
                {t: self.positions[t] for t in self.requests}
            )
        else:
            self.memo_hits += 1
        return self._disk_index

    def sojourn_candidates(
        self, mis_strategy: str = "min_degree", seed: int = 0
    ) -> List[int]:
        """The MIS ``S_I`` of ``G_c`` (memoized per strategy/seed)."""
        key = (mis_strategy, seed)
        cached = self._mis.get(key)
        if cached is not None:
            self.memo_hits += 1
            return list(cached)
        self.memo_misses += 1
        result = maximal_independent_set(
            self.charging_graph, strategy=mis_strategy, seed=seed
        )
        self._mis[key] = result
        return list(result)

    def coverage_for(
        self, candidates: Sequence[int]
    ) -> Dict[int, FrozenSet[int]]:
        """``N_c⁺(v)`` per candidate, memoized per candidate.

        Matches :func:`repro.graphs.coverage.coverage_sets` with the
        request set as targets: the requested sensors within the
        charging radius of the candidate's disk, plus the candidate
        itself. A requested candidate's set is its ``G_c`` row — the
        same ``math.hypot <= γ`` test on the same floats — with the
        candidate put back in its place, so the set is built in the
        order the index query would give; any other candidate asks
        the disk index.
        """
        out: Dict[int, FrozenSet[int]] = {}
        fresh: List[int] = []
        for cand in candidates:
            cached = self._coverage.get(cand)
            if cached is not None:
                self.memo_hits += 1
                out[cand] = cached
            else:
                self.memo_misses += 1
                fresh.append(cand)
        if fresh:
            graph = self.charging_graph
            others = [cand for cand in fresh if cand not in graph]
            queried: Dict[int, List[int]] = {}
            if others:
                rows = self.disk_index.within_bulk(
                    [self.positions[cand] for cand in others],
                    self.charger.charge_radius_m,
                )
                queried = dict(zip(others, rows))
            for cand in fresh:
                row = queried.get(cand)
                if row is None:
                    nbrs = graph.neighbors(cand)
                    at = bisect_left(nbrs, cand)
                    row = [*nbrs[:at], cand, *nbrs[at:]]
                covered = set(row)
                covered.add(cand)
                frozen = frozenset(covered)
                self._coverage[cand] = frozen
                out[cand] = frozen
        return out

    def built_coverage(
        self, coverage: Mapping[int, FrozenSet[int]], stops: Sequence[int]
    ) -> bool:
        """Whether every stop's set in ``coverage`` is the very
        ``N_c⁺`` set :meth:`coverage_for` memoized here, so that
        :meth:`sensor_stop_groups` inverts the same relation. A
        one-to-one schedule's ``{v}`` sets, or sets from before an
        :meth:`invalidate`, are not."""
        return all(
            stop in self._coverage and coverage[stop] is self._coverage[stop]
            for stop in stops
        )

    def sensor_stop_groups(
        self, candidates: Sequence[int]
    ) -> Dict[int, Tuple[int, ...]]:
        """Per-sensor stop-group index: sensor -> candidates whose
        charging disk contains it (memoized per candidate set).

        This is the coverage relation inverted — exactly the candidate
        generator of the conflict engine
        (:mod:`repro.core.conflicts`): two stops can violate the
        no-simultaneous-charging constraint only when some sensor lies
        in both disks, i.e. when they share a group. Consumers pass it
        to :func:`repro.core.validation.validate_schedule` (as the
        pipeline's :meth:`PlannedSchedule.validate` does) so repeated
        validation of schedules over the same candidate set skips the
        coverage inversion.
        """
        key = tuple(sorted(set(candidates)))
        cached = self._stop_groups.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        coverage = self.coverage_for(key)
        groups: Dict[int, List[int]] = {}
        for cand in key:
            for sensor in coverage[cand]:
                groups.setdefault(sensor, []).append(cand)
        frozen = {
            sensor: tuple(members) for sensor, members in groups.items()
        }
        self._stop_groups[key] = frozen
        return frozen

    def auxiliary_graph(
        self, mis_strategy: str = "min_degree", seed: int = 0
    ) -> NeighborRows:
        """The conflict graph ``H`` over ``S_I`` (memoized)."""
        key = (mis_strategy, seed)
        cached = self._aux.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        candidates = self.sojourn_candidates(mis_strategy, seed)
        graph = build_auxiliary_graph(
            candidates,
            self.coverage_for(candidates),
            self.positions,
            self.charger.charge_radius_m,
        )
        self._aux[key] = graph
        return graph

    def conflict_free_core(
        self, mis_strategy: str = "min_degree", seed: int = 0
    ) -> List[int]:
        """The MIS ``V'_H`` of ``H`` (memoized per strategy/seed)."""
        key = (mis_strategy, seed)
        cached = self._core.get(key)
        if cached is not None:
            self.memo_hits += 1
            return list(cached)
        self.memo_misses += 1
        result = maximal_independent_set(
            self.auxiliary_graph(mis_strategy, seed),
            strategy=mis_strategy,
            seed=seed,
        )
        self._core[key] = result
        return list(result)

    # ------------------------------------------------------------------
    # Min-max tours (step 5 / the K-minMax baseline)
    # ------------------------------------------------------------------

    def minmax_tours(
        self,
        nodes: Sequence[int],
        num_tours: int,
        service: Mapping[int, float],
        tsp_method: str = "christofides",
        improve: bool = True,
    ) -> Tuple[List[List[int]], float]:
        """Memoized ``K``-min-max tour cover of ``nodes``.

        The memo key includes the node order, ``K``, the construction
        method and every service weight, so any change in the inputs
        falls through to :func:`repro.tours.kminmax.solve_k_minmax_tours`
        (which itself draws distances from the shared cache).
        """
        node_tuple = tuple(nodes)
        key = (
            node_tuple,
            num_tours,
            tsp_method,
            improve,
            tuple(service[v] for v in node_tuple),
        )
        cached = self._minmax.get(key)
        if cached is not None:
            self.memo_hits += 1
            tours, delay = cached
        else:
            self.memo_misses += 1
            tours, delay = solve_k_minmax_tours(
                list(node_tuple),
                self.positions,
                self.depot,
                num_tours,
                self.charger.travel_speed_mps,
                service=lambda v: service[v],
                tsp_method=tsp_method,
                improve=improve,
                dist=self.distance,
            )
            self._minmax[key] = (tours, delay)
        # Callers mutate tour lists (appending stops), so hand out
        # copies and keep the memoized solution pristine.
        return [list(tour) for tour in tours], delay

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Memo and distance-cache counters, for benchmarks and the CLI."""
        return {
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "invalidations": self.invalidations,
            "minmax_solutions": len(self._minmax),
            "coverage_entries": len(self._coverage),
            "stop_group_indexes": len(self._stop_groups),
            **{
                f"distance_{k}": v for k, v in self.distance.stats().items()
            },
        }


__all__ = ["PlanningContext", "shared_distance_cache"]
