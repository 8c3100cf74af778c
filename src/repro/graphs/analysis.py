"""Instance analytics: the structural quantities behind the results.

The paper's evaluation regimes are governed by a handful of structural
numbers — how many sensors share a charging disk, how dense the
conflict graph is, and whether the network's recharge demand exceeds
the fleet's service capacity. This module computes them directly so a
user can *predict* which regime an instance is in before simulating:

* :func:`disk_occupancy` — per-sensor count of requesting sensors in
  its charging disk; the multi-node parallelism factor.
* :func:`structure_report` — |S_I|, |V'_H|, Δ_H, conflict-graph
  density for a request set.
* :func:`load_factor` — total recharge demand (W) over one-to-one
  service capacity; > 1 predicts baseline divergence (the paper's
  large-`n` regime), and dividing by the mean occupancy approximates
  the multi-node load factor governing ``Appro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.energy.charging import ChargerSpec
from repro.energy.consumption import RadioModel, sensor_power_draw
from repro.geometry.disk_index import DiskIndex
from repro.graphs.auxiliary import auxiliary_max_degree, build_auxiliary_graph
from repro.graphs.coverage import coverage_sets
from repro.graphs.mis import maximal_independent_set
from repro.graphs.unit_disk import build_charging_graph
from repro.network.routing import build_routing_tree, relay_loads_bps
from repro.network.topology import WRSN


def disk_occupancy(
    network: WRSN,
    request_ids: Sequence[int],
    radius_m: float,
) -> Dict[int, int]:
    """For each requested sensor: how many requested sensors (itself
    included) lie within its charging disk."""
    requests = sorted(set(request_ids))
    positions = {sid: network.position_of(sid) for sid in requests}
    rows = DiskIndex(positions).within_bulk(
        list(positions.values()), radius_m
    )
    return {sid: len(row) for sid, row in zip(requests, rows)}


def mean_disk_occupancy(
    network: WRSN, request_ids: Sequence[int], radius_m: float
) -> float:
    """Average multi-node parallelism of a request set (≥ 1)."""
    occupancy = disk_occupancy(network, request_ids, radius_m)
    if not occupancy:
        return 0.0
    return sum(occupancy.values()) / len(occupancy)


@dataclass(frozen=True)
class StructureReport:
    """Structural summary of one scheduling instance."""

    num_requests: int
    charging_graph_edges: int
    sojourn_candidates: int        # |S_I|
    conflict_free_core: int        # |V'_H|
    conflict_edges: int            # |E_H|
    delta_h: int
    mean_occupancy: float

    @property
    def stops_per_sensor(self) -> float:
        """Sojourn economy: below 1 means disk sharing is happening."""
        if self.num_requests == 0:
            return 0.0
        return self.sojourn_candidates / self.num_requests


def structure_report(
    network: WRSN,
    request_ids: Sequence[int],
    charger: Optional[ChargerSpec] = None,
    mis_strategy: str = "min_degree",
) -> StructureReport:
    """Compute the Algorithm-1 structures for a request set, without
    scheduling."""
    spec = charger if charger is not None else ChargerSpec()
    requests = sorted(set(request_ids))
    positions = network.positions()
    graph = build_charging_graph(
        positions, spec.charge_radius_m, nodes=requests
    )
    candidates = maximal_independent_set(graph, strategy=mis_strategy)
    coverage = coverage_sets(
        candidates, positions, spec.charge_radius_m, targets=requests
    )
    aux = build_auxiliary_graph(
        candidates, coverage, positions, spec.charge_radius_m
    )
    core = maximal_independent_set(aux, strategy=mis_strategy)
    return StructureReport(
        num_requests=len(requests),
        charging_graph_edges=graph.number_of_edges(),
        sojourn_candidates=len(candidates),
        conflict_free_core=len(core),
        conflict_edges=aux.number_of_edges(),
        delta_h=auxiliary_max_degree(aux),
        mean_occupancy=mean_disk_occupancy(
            network, requests, spec.charge_radius_m
        ),
    )


@dataclass(frozen=True)
class LoadReport:
    """Demand-vs-capacity analysis of a whole network."""

    total_demand_w: float
    one_to_one_capacity_w: float
    load_factor: float
    hottest_sensor_w: float
    hottest_lifetime_h: float

    @property
    def predicts_baseline_divergence(self) -> bool:
        """Demand above one-to-one capacity ⇒ one-to-one schedulers
        cannot keep up over a long horizon."""
        return self.load_factor > 1.0


def load_factor(
    network: WRSN,
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    radio: Optional[RadioModel] = None,
    duty_factor: float = 0.9,
) -> LoadReport:
    """Estimate the network's recharge demand vs fleet capacity.

    Demand is the steady-state total power draw (routing-tree relay
    loads included). One-to-one capacity is ``K · η`` derated by
    ``duty_factor`` for travel overhead. ``load_factor`` > 1 predicts
    that one-to-one baselines diverge (the paper's large-``n``
    regime); ``load_factor / mean_occupancy`` < 1 predicts ``Appro``
    remains stable.

    Raises:
        ValueError: on non-positive ``num_chargers`` or a duty factor
            outside (0, 1].
    """
    if num_chargers <= 0:
        raise ValueError(f"num_chargers must be positive: {num_chargers}")
    if not 0.0 < duty_factor <= 1.0:
        raise ValueError(f"duty_factor must be in (0, 1]: {duty_factor}")
    spec = charger if charger is not None else ChargerSpec()
    model = radio if radio is not None else RadioModel()
    tree = build_routing_tree(network)
    relayed = relay_loads_bps(network, tree)
    draws = {
        s.id: sensor_power_draw(
            model, s.data_rate_bps, relayed[s.id],
            tree.next_hop_distance_m[s.id],
        )
        for s in network.sensors()
    }
    total = sum(draws.values())
    capacity = num_chargers * spec.charge_rate_w * duty_factor
    hottest_id = max(draws, key=draws.get) if draws else None
    hottest = draws.get(hottest_id, 0.0)
    hottest_life_h = (
        network.sensor(hottest_id).capacity_j / hottest / 3600.0
        if hottest_id is not None and hottest > 0
        else float("inf")
    )
    return LoadReport(
        total_demand_w=total,
        one_to_one_capacity_w=capacity,
        load_factor=total / capacity if capacity > 0 else float("inf"),
        hottest_sensor_w=hottest,
        hottest_lifetime_h=hottest_life_h,
    )
