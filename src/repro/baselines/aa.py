"""AA: K-means partition, one charger per cluster (Wang et al.).

Paper description (Section VI-A, benchmark (iv)): partition the
to-be-charged sensors into ``K`` groups with K-means, dedicate one MCV
to each group, and have it charge the group's sensors one-to-one.

The original AA charges only a *proportion* of each group — those
reachable before expiration — to maximise delivered energy minus
travel cost. Our reproduction charges every sensor in the group (in
nearest-neighbour order from the depot) so that all five algorithms
serve identical request sets and their longest delays are directly
comparable; this matches how the paper reports AA's (much longer)
tour durations. The substitution is recorded in DESIGN.md.

K-means is implemented here directly (Lloyd's algorithm, seeded,
K-means++ initialisation) to keep the baseline deterministic across
scipy versions.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.baselines.common import one_to_one_schedule
from repro.core.context import PlanningContext
from repro.core.schedule import ChargingSchedule
from repro.energy.charging import ChargerSpec
from repro.network.topology import WRSN
from repro.tours.tsp import build_tsp_order


def kmeans_partition(
    coords: np.ndarray,
    num_clusters: int,
    seed: int = 0,
    max_iter: int = 100,
) -> np.ndarray:
    """Lloyd's K-means with K-means++ seeding.

    Args:
        coords: ``(n, 2)`` array of positions.
        num_clusters: number of clusters ``K``; capped at ``n``.
        seed: RNG seed.
        max_iter: Lloyd iteration cap.

    Returns:
        ``(n,)`` integer array of cluster labels in ``[0, K)``.
    """
    n = coords.shape[0]
    k = min(num_clusters, n)
    if k <= 0:
        raise ValueError(f"num_clusters must be positive, got {num_clusters}")
    rng = np.random.default_rng(seed)

    # K-means++ initialisation.
    centers = np.empty((k, 2))
    first = int(rng.integers(0, n))
    centers[0] = coords[first]
    closest_sq = ((coords - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            centers[j:] = coords[first]
            break
        probs = closest_sq / total
        pick = int(rng.choice(n, p=probs))
        centers[j] = coords[pick]
        dist_sq = ((coords - centers[j]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, dist_sq)

    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        dists = ((coords[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            members = coords[labels == j]
            if len(members) > 0:
                centers[j] = members.mean(axis=0)
    return labels


def aa_schedule(
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    lifetimes: Optional[Mapping[int, float]] = None,
    seed: int = 0,
    context: Optional[PlanningContext] = None,
) -> ChargingSchedule:
    """Schedule the request set with the AA clustering heuristic.

    Args:
        network: the WRSN instance.
        request_ids: the to-be-charged sensors ``V_s``.
        num_chargers: ``K`` (also the number of K-means clusters).
        charger: MCV parameters (paper defaults when omitted).
        lifetimes: accepted for the uniform planner call and ignored:
            AA clusters geometrically, urgency does not enter.
        seed: K-means seed.
        context: the :class:`~repro.core.context.PlanningContext`
            supplying the shared distance cache and memoized charge
            times; built here when omitted.

    Returns:
        A one-to-one :class:`~repro.core.schedule.ChargingSchedule`
        (see :func:`~repro.baselines.common.one_to_one_schedule`).
    """
    if num_chargers <= 0:
        raise ValueError(f"num_chargers must be positive, got {num_chargers}")
    spec = charger if charger is not None else ChargerSpec()
    requests = sorted(set(request_ids))
    positions = network.positions()
    depot = network.depot.position
    if context is None:
        context = PlanningContext(network, requests, spec)
    dist = context.distance

    sequences: List[List[int]] = [[] for _ in range(num_chargers)]
    if requests:
        coords = np.array(
            [[positions[sid].x, positions[sid].y] for sid in requests]
        )
        labels = kmeans_partition(coords, num_chargers, seed=seed)
        for k in range(num_chargers):
            group = [sid for sid, lab in zip(requests, labels) if lab == k]
            if not group:
                continue
            # Serve the cluster in nearest-neighbour order from the
            # depot (the vehicle has to start there anyway).
            sequences[k] = build_tsp_order(
                group, positions, depot, method="nearest_neighbor", dist=dist
            )
    return one_to_one_schedule(
        context, requests, spec, num_chargers, sequences
    )
