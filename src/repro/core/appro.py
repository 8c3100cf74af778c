"""Algorithm 1 — ``Appro`` — end to end.

The paper's approximation algorithm for the longest charge delay
minimization problem:

1. build the charging graph ``G_c`` over the request set ``V_s``
   (unit-disk graph with the charging radius ``γ``);
2. find an MIS ``S_I`` of ``G_c`` — candidate sojourn locations whose
   disks jointly cover ``V_s``;
3. build the auxiliary conflict graph ``H`` over ``S_I``;
4. find an MIS ``V'_H`` of ``H`` — a conflict-free core;
5. cover ``V'_H`` with ``K`` depot-rooted closed tours minimising the
   longest delay, via the ``K``-optimal closed tour approximation
   (:func:`repro.tours.kminmax.solve_k_minmax_tours`), with node
   weights ``τ(v)``;
6. extend the partial solution: process each ``u ∈ S_I \\ V'_H`` in
   ascending latest-neighbour-finish order, skipping covered disks and
   inserting the rest after their latest-finishing scheduled
   ``H``-neighbour (cases (i)/(ii));
7. (optional, on by default) resolve any residual cross-tour overlap
   by inserting waits, guaranteeing a feasible executable schedule.

Step 7 is an engineering safeguard beyond the paper: the paper argues
its insertion rule avoids overlap, and in practice the rule almost
always does, but the argument is not airtight for long insertion
cascades; the waits make feasibility unconditional while adding
negligible delay (see ``EXPERIMENTS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.conflicts import resolve_conflicts
from repro.core.context import PlanningContext
from repro.core.insertion import extend_schedule
from repro.core.schedule import ChargingSchedule
from repro.energy.charging import ChargerSpec
from repro.graphs.adjacency import NeighborRows
from repro.graphs.auxiliary import auxiliary_max_degree
from repro.network.topology import WRSN


@dataclass
class ApproArtifacts:
    """Intermediate structures of one ``Appro`` run, for inspection.

    Attributes:
        charging_graph: ``G_c``.
        sojourn_candidates: the MIS ``S_I``.
        aux_graph: the conflict graph ``H``.
        conflict_free_core: the MIS ``V'_H`` of ``H``.
        delta_h: maximum degree of ``H`` (enters the ratio).
        initial_longest_delay_s: longest delay of the K tours before the
            extension step.
        insertion_outcomes: per-candidate outcome of the extension
            loop (``skipped`` / ``case1`` / ``case2`` / ``appended``).
        waits_inserted: number of waits added by conflict resolution
            (0 when the paper's construction was already feasible).
    """

    charging_graph: NeighborRows
    sojourn_candidates: List[int]
    aux_graph: NeighborRows
    conflict_free_core: List[int]
    delta_h: int
    initial_longest_delay_s: float
    insertion_outcomes: Dict[int, str] = field(default_factory=dict)
    waits_inserted: int = 0


def appro_schedule(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    lifetimes: Optional[Mapping[int, float]] = None,
    mis_strategy: str = "min_degree",
    tsp_method: str = "christofides",
    seed: int = 0,
    enforce_feasibility: bool = True,
    artifacts: Optional[ApproArtifacts] = None,
    efficiency=None,
    context: Optional[PlanningContext] = None,
) -> ChargingSchedule:
    """Run Algorithm 1 and return the resulting charging schedule.

    Args:
        network: the WRSN (provides positions, batteries, the depot).
        request_ids: the to-be-charged set ``V_s``.
        num_chargers: ``K`` — number of MCVs.
        charger: MCV parameters; defaults to the paper's
            (η = 2 W, γ = 2.7 m, s = 1 m/s).
        lifetimes: accepted for the uniform planner call and ignored:
            Appro schedules from charge deficits, not urgency.
        mis_strategy: selection order for both MIS computations (see
            :func:`repro.graphs.mis.maximal_independent_set`).
        tsp_method: backbone construction inside the K-tour subroutine.
        seed: RNG seed for the ``"random"`` MIS strategy.
        enforce_feasibility: run the wait-inserting conflict
            resolution (step 7) after construction.
        artifacts: pass an :class:`ApproArtifacts` shell to receive the
            intermediate structures (or use the 2-tuple variant
            :func:`appro_schedule_with_artifacts`).
        efficiency: optional distance-aware charging-efficiency model
            (:mod:`repro.energy.efficiency`); the paper's constant
            model when omitted. Under a decaying model a stop must
            charge longer for sensors near its disk boundary, so
            Eq. (2)/(3) durations become stop-dependent.
        context: a :class:`~repro.core.context.PlanningContext` built
            for the same network/request-set/charger, whose memoized
            graphs, MIS results, coverage sets, charge times, min-max
            tours and shared distance cache steps 1–5 draw on; built
            here when omitted.

    Returns:
        The :class:`~repro.core.schedule.ChargingSchedule`.

    Raises:
        ValueError: on an empty network reference, non-positive ``K``,
            request ids absent from the network, or a ``context`` built
            for a different network, request set or charger.
    """
    if num_chargers <= 0:
        raise ValueError(f"num_chargers must be positive, got {num_chargers}")
    spec = charger if charger is not None else ChargerSpec()
    if context is None:
        context = PlanningContext(network, request_ids, spec)
    context.validate_for(network, request_ids, spec)
    requests = context.requests
    positions = context.positions
    charge_times = context.charge_times_for(requests)

    # Steps 1-4: charging graph, sojourn candidates, conflict graph and
    # its conflict-free core, from the context's memos.
    charging_graph = context.charging_graph
    sojourn_candidates = context.sojourn_candidates(mis_strategy, seed)
    coverage = context.coverage_for(sojourn_candidates)
    aux_graph = context.auxiliary_graph(mis_strategy, seed)
    core = context.conflict_free_core(mis_strategy, seed)

    pair_time = None
    if efficiency is not None:
        from repro.energy.efficiency import pairwise_charge_time_fn

        deficits = {
            sid: network.sensor(sid).capacity_j - network.sensor(sid).residual_j
            for sid in requests
        }
        pair_time = pairwise_charge_time_fn(
            positions, deficits, spec, efficiency
        )
    schedule = ChargingSchedule(
        depot=network.depot.position,
        positions=positions,
        coverage=coverage,
        charge_times=charge_times,
        charger=spec,
        num_tours=num_chargers,
        pairwise_charge_time=pair_time,
        distance=context.distance,
    )

    # Step 5: K min-max tours over the conflict-free core, with the
    # Eq. (2) upper durations τ(v) as service weights.
    tau = {v: schedule.upper_duration(v) for v in core}
    tours, _ = context.minmax_tours(
        core, num_chargers, tau, tsp_method=tsp_method
    )
    for k, tour in enumerate(tours):
        for node in tour:
            schedule.append_stop(k, node)
    initial_longest = schedule.longest_delay()

    # Step 6: extend with the remaining candidates.
    remaining = [v for v in sojourn_candidates if v not in set(core)]
    outcomes = extend_schedule(schedule, remaining, aux_graph)

    # Step 7: optional feasibility enforcement.
    waits = 0
    if enforce_feasibility:
        waits = resolve_conflicts(schedule)

    if artifacts is not None:
        artifacts.charging_graph = charging_graph
        artifacts.sojourn_candidates = list(sojourn_candidates)
        artifacts.aux_graph = aux_graph
        artifacts.conflict_free_core = list(core)
        artifacts.delta_h = auxiliary_max_degree(aux_graph)
        artifacts.initial_longest_delay_s = initial_longest
        artifacts.insertion_outcomes = outcomes
        artifacts.waits_inserted = waits
    return schedule


def appro_schedule_with_artifacts(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    **kwargs,
) -> "tuple[ChargingSchedule, ApproArtifacts]":
    """Like :func:`appro_schedule` but also returns the intermediate
    structures of the run."""
    shell = ApproArtifacts(
        charging_graph=NeighborRows({}),
        sojourn_candidates=[],
        aux_graph=NeighborRows({}),
        conflict_free_core=[],
        delta_h=0,
        initial_longest_delay_s=0.0,
    )
    schedule = appro_schedule(
        network, request_ids, num_chargers, artifacts=shell, **kwargs
    )
    return schedule, shell
