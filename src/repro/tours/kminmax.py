"""The ``K``-optimal closed tour solver (paper Definition 2).

Given sojourn locations with charging durations ``τ(v)``, a depot and
``K`` vehicles, find ``K`` node-disjoint depot-rooted closed tours
covering all locations such that the longest tour delay (travel time
plus charging time) is minimised. The problem is NP-hard; Algorithm 1
invokes the constant-factor approximation of Liang et al. (ACM TOSN
2016). We realise that approximation as:

1. build one closed TSP tour through all locations (Christofides by
   default — the same Christofides backbone Liang et al. build on),
2. shorten it with 2-opt (order-only; service times are invariant),
3. split it into ≤ ``K`` consecutive segments minimising the maximum
   segment delay (:func:`repro.tours.splitting.split_tour_min_max`).

The classic Frederickson analysis gives tour-splitting a constant
factor relative to the optimal min-max cover, matching the constant-
factor contract the paper's analysis relies on (it only uses that the
subroutine is a constant approximation; the constant 5 enters the final
ratio symbolically).
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.geometry.distcache import DistanceCache
from repro.geometry.point import PointLike
from repro.tours.arrays import ArrayDistance
from repro.tours.improve import or_opt, two_opt
from repro.tours.splitting import split_tour_min_max
from repro.tours.tsp import build_tsp_order

#: Above this instance size, Christofides (cubic matching) falls back
#: to the greedy-edge construction, and local search is skipped above
#: twice this size; keeps a single scheduling call sub-second even for
#: saturated simulation rounds with ~1000 requests.
_CHRISTOFIDES_MAX_NODES = 250
_IMPROVE_MAX_NODES = 600


def backbone_policy(
    num_nodes: int, tsp_method: str, improve: bool
) -> Tuple[str, bool]:
    """The backbone construction and local-search gate for a solve.

    Returns ``(method, run_improve)``: the TSP construction actually
    used for ``num_nodes`` nodes (Christofides degrades to greedy-edge
    above :data:`_CHRISTOFIDES_MAX_NODES`) and whether 2-opt + Or-opt
    run on it.
    """
    method = tsp_method
    if method == "christofides" and num_nodes > _CHRISTOFIDES_MAX_NODES:
        method = "greedy_edge"
    return method, improve and 3 <= num_nodes <= _IMPROVE_MAX_NODES


def backbone_order(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    tsp_method: str,
    improve: bool,
    dense: ArrayDistance,
) -> List[Hashable]:
    """One closed tour through ``nodes`` under :func:`backbone_policy`:
    the TSP construction, then 2-opt and Or-opt when the gate allows.

    All three stages read ``dense``, the matrix over ``nodes`` in the
    given order: the moves depend only on its entries, so the tour is
    the one each stage's own matrix would give.
    """
    method, run_improve = backbone_policy(len(nodes), tsp_method, improve)
    order = build_tsp_order(nodes, positions, depot, method, dense=dense)
    if run_improve:
        order = two_opt(order, positions, depot, dense=dense)
        order = or_opt(order, positions, depot, dense=dense)
    return order


def solve_k_minmax_tours(
    nodes: Sequence[Hashable],
    positions: Mapping[Hashable, PointLike],
    depot: PointLike,
    num_tours: int,
    speed_mps: float,
    service: Callable[[Hashable], float],
    tsp_method: str = "christofides",
    improve: bool = True,
    dist: Optional[DistanceCache] = None,
) -> Tuple[List[List[Hashable]], float]:
    """Approximate the ``K``-optimal closed tour problem.

    Args:
        nodes: sojourn locations to cover (node-disjointly).
        positions: id -> position.
        depot: the common depot position.
        num_tours: ``K``, the number of vehicles.
        speed_mps: vehicle travel speed ``s``.
        service: per-node service (charging) duration ``τ(v)``.
        tsp_method: construction for the backbone tour (see
            :func:`repro.tours.tsp.build_tsp_order`).
        improve: run 2-opt + Or-opt on the backbone before splitting.
        dist: optional shared depot-carrying distance cache (``None``
            label = depot); one cache is created per call when omitted.

    Returns:
        ``(tours, longest_delay)`` — exactly ``num_tours`` visit lists
        (some possibly empty) and the achieved maximum tour delay.
    """
    if num_tours <= 0:
        raise ValueError(f"num_tours must be positive, got {num_tours}")
    node_list = list(nodes)
    if not node_list:
        return [[] for _ in range(num_tours)], 0.0
    if dist is None:
        dist = DistanceCache(positions, depot)
    # One matrix serves the backbone and the split's legs.
    dense = ArrayDistance.from_cache(dist, node_list)
    order = backbone_order(
        node_list, positions, depot, tsp_method, improve, dense
    )
    return split_tour_min_max(
        order, num_tours, positions, depot, speed_mps, service, dense=dense
    )
