"""Per-tour MCV energy budgets (beyond-the-paper extension).

The paper assumes "a mobile charger has sufficient energy for traveling
and sensor charging per charging tour" (Section III-B), citing Liang et
al. [13, 14] for the energy-constrained variant. This module supplies
that variant's machinery:

* :class:`MCVEnergyModel` — the vehicle's battery capacity and its two
  energy sinks: travel (J/m) and delivered charging energy (the
  charger draws ``η / transfer_efficiency`` watts while charging at
  rate ``η``).
* :func:`tour_energy` — total energy one closed tour consumes.
* :func:`split_tour_energy_constrained` — min-max splitting under both
  the delay bound *and* the battery capacity: the greedy packer closes
  a segment when either the delay bound or the energy budget would be
  exceeded. With an infinite budget it reduces exactly to the paper's
  splitting.
* :func:`minimum_chargers_energy_constrained` — fewest vehicles such
  that every tour fits the battery (and optionally a delay bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.geometry.distcache import DistanceCache
from repro.geometry.point import PointLike
from repro.tours.arrays import ArrayDistance, split_dual_ranges, tour_legs
from repro.tours.kminmax import backbone_order
from repro.tours.splitting import segment_cost

#: Pairwise distance lookup over node labels; ``None`` means the depot.
DistanceFn = Callable[[Hashable, Hashable], float]


@dataclass(frozen=True)
class MCVEnergyModel:
    """Energy accounting of one mobile charging vehicle.

    Attributes:
        battery_j: usable battery capacity per tour, joules.
        travel_j_per_m: propulsion energy per metre.
        charge_rate_w: the charging rate ``η`` delivered to sensors.
        transfer_efficiency: fraction of drawn power that reaches the
            sensors; the vehicle drains ``η / transfer_efficiency``
            watts while charging.
    """

    battery_j: float
    travel_j_per_m: float = 10.0
    charge_rate_w: float = 2.0
    transfer_efficiency: float = 0.5

    def __post_init__(self) -> None:
        if self.battery_j <= 0:
            raise ValueError(f"battery must be positive: {self.battery_j}")
        if self.travel_j_per_m < 0:
            raise ValueError(
                f"travel energy must be non-negative: {self.travel_j_per_m}"
            )
        if self.charge_rate_w <= 0:
            raise ValueError(
                f"charge rate must be positive: {self.charge_rate_w}"
            )
        if not 0.0 < self.transfer_efficiency <= 1.0:
            raise ValueError(
                f"transfer efficiency must be in (0, 1]: "
                f"{self.transfer_efficiency}"
            )

    def travel_energy(self, distance_m: float) -> float:
        """Joules to drive ``distance_m`` metres."""
        if distance_m < 0:
            raise ValueError(f"distance must be non-negative: {distance_m}")
        return self.travel_j_per_m * distance_m

    def charging_energy(self, charge_seconds: float) -> float:
        """Joules drained while the charger runs for ``charge_seconds``."""
        if charge_seconds < 0:
            raise ValueError(
                f"charge time must be non-negative: {charge_seconds}"
            )
        return (
            self.charge_rate_w / self.transfer_efficiency * charge_seconds
        )


def tour_energy(
    segment: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    model: MCVEnergyModel,
    service: Callable[[Hashable], float],
    dist: Optional[DistanceFn] = None,
) -> float:
    """Energy one closed tour depot -> segment -> depot consumes."""
    if not segment:
        return 0.0
    if dist is None:
        dist = DistanceCache(positions, depot)
    travel = dist(None, segment[0])
    for a, b in zip(segment, segment[1:]):
        travel += dist(a, b)
    travel += dist(segment[-1], None)
    charging = sum(service(v) for v in segment)
    return model.travel_energy(travel) + model.charging_energy(charging)


def split_tour_energy_constrained(
    order: Sequence[Hashable],
    num_tours: int,
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    speed_mps: float,
    service: Callable[[Hashable], float],
    model: MCVEnergyModel,
    dist: Optional[DistanceCache] = None,
) -> Tuple[Optional[List[List[Hashable]]], float]:
    """Best energy-feasible consecutive split into ≤ ``num_tours``.

    Binary-searches the delay bound exactly like the unconstrained
    splitter, with the battery as a hard side constraint on every
    candidate segment.

    Returns:
        ``(segments, achieved_delay)`` — ``segments`` is ``None`` when
        no energy-feasible split into ``num_tours`` tours exists (some
        node alone busts the battery, or the fleet is too small).
    """
    if num_tours <= 0:
        raise ValueError(f"num_tours must be positive, got {num_tours}")
    order = list(order)
    if not order:
        return [[] for _ in range(num_tours)], 0.0
    if dist is None:
        dist = DistanceCache(positions, depot)
    # The scalar drain expression groups as (rate / eff) * seconds;
    # pre-dividing once keeps the product byte-identical.
    ranges, achieved = split_dual_ranges(
        tour_legs(dist, order, service),
        num_tours,
        speed_mps,
        model.travel_j_per_m,
        model.charge_rate_w / model.transfer_efficiency,
        model.battery_j,
    )
    if ranges is None:
        return None, achieved
    padded = [order[s:e] for s, e in ranges]
    padded.extend([] for _ in range(num_tours - len(padded)))
    return padded, achieved


def solve_k_minmax_energy_constrained(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    num_tours: int,
    speed_mps: float,
    service: Callable[[Hashable], float],
    model: MCVEnergyModel,
    tsp_method: str = "christofides",
    dist: Optional[DistanceCache] = None,
) -> Tuple[Optional[List[List[Hashable]]], float]:
    """Energy-feasible min-max K tours (backbone + constrained split)."""
    node_list = list(nodes)
    if not node_list:
        return [[] for _ in range(num_tours)], 0.0
    if dist is None:
        dist = DistanceCache(positions, depot)
    order = backbone_order(
        node_list,
        positions,
        depot,
        tsp_method,
        True,
        ArrayDistance.from_cache(dist, node_list),
    )
    return split_tour_energy_constrained(
        order, num_tours, positions, depot, speed_mps, service, model, dist
    )


def minimum_chargers_energy_constrained(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    speed_mps: float,
    service: Callable[[Hashable], float],
    model: MCVEnergyModel,
    delay_bound_s: float = math.inf,
    max_chargers: int = 128,
    dist: Optional[DistanceCache] = None,
) -> Tuple[Optional[int], Optional[List[List[Hashable]]]]:
    """Fewest vehicles whose tours all fit the battery (and bound).

    Returns:
        ``(K, tours)`` or ``(None, None)`` when even ``max_chargers``
        vehicles cannot satisfy the constraints (e.g. a single node's
        round trip alone exceeds the battery).
    """
    node_list = list(nodes)
    if not node_list:
        return 0, []
    if dist is None:
        dist = DistanceCache(positions, depot)
    for node in node_list:
        if (
            tour_energy([node], positions, depot, model, service, dist)
            > model.battery_j
            or segment_cost(
                [node], positions, depot, speed_mps, service, dist
            )
            > delay_bound_s
        ):
            return None, None
    def attempt(k: int):
        tours, achieved = solve_k_minmax_energy_constrained(
            node_list, positions, depot, k, speed_mps, service, model,
            dist=dist,
        )
        if tours is not None and achieved <= delay_bound_s:
            return tours
        return None

    # Double until feasible (or the ceiling), then binary-search the
    # minimum inside (hi/2, hi].
    hi = 1
    tours = attempt(hi)
    while tours is None and hi < max_chargers:
        hi = min(hi * 2, max_chargers)
        tours = attempt(hi)
    if tours is None:
        return None, None
    lo = hi // 2 + 1 if hi > 1 else 1
    best_k, best_tours = hi, tours
    while lo < best_k:
        mid = (lo + best_k) // 2
        mid_tours = attempt(mid)
        if mid_tours is not None:
            best_k, best_tours = mid, mid_tours
        else:
            lo = mid + 1
    return best_k, best_tours
