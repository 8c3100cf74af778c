"""The auxiliary conflict graph ``H = (S_I, E_H)``.

An edge ``(u, v)`` of ``H`` marks two candidate sojourn locations whose
charging disks intersect — ``N_c⁺(u) ∩ N_c⁺(v) ≠ ∅`` — i.e. two MCVs
sojourning there with overlapping time intervals would charge some
sensor twice. Because ``S_I`` is independent in ``G_c``, every edge of
``H`` joins locations with ``γ < d(u, v)``, and a shared covered sensor
forces ``d(u, v) ≤ 2γ`` by the triangle inequality, so the paper's
characterisation "strictly larger than γ but less than 2γ" holds.

Lemma 2 bounds the maximum degree ``Δ_H ≤ ⌈8π⌉``; an MIS ``V'_H`` of
``H`` is therefore a large conflict-free core.

We build edges from the *exact* disk-intersection test on the coverage
sets rather than the distance proxy: ``d ≤ 2γ`` is necessary but not
sufficient (the lens between two disks may contain no sensor), and the
paper's definition is set-intersection.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping

import networkx as nx

from repro.geometry.disk_index import DiskIndex
from repro.geometry.point import Point


def build_auxiliary_graph(
    sojourn_candidates: Iterable[int],
    coverage: Mapping[int, FrozenSet[int]],
    positions: Mapping[int, Point],
    radius_m: float,
) -> nx.Graph:
    """Build ``H`` over the candidate sojourn locations.

    Args:
        sojourn_candidates: the MIS ``S_I`` of the charging graph.
        coverage: ``N_c⁺(v)`` per candidate (from
            :func:`repro.graphs.coverage.coverage_sets`).
        positions: id -> position (used to prune candidate pairs to
            those within ``2γ`` before the exact set test).
        radius_m: the charging radius ``γ``.

    Returns:
        ``networkx.Graph`` with an edge wherever two candidates' disks
        share at least one sensor.
    """
    if radius_m <= 0:
        raise ValueError(f"charging radius must be positive, got {radius_m}")
    candidates = sorted(sojourn_candidates)
    graph = nx.Graph()
    graph.add_nodes_from(candidates)
    # Disk intersection requires centre distance <= 2γ: one pair query
    # yields every such pair, in (cand, other) index order.
    index = DiskIndex({c: positions[c] for c in candidates})
    rows, cols = index.pairs_within(
        [positions[c] for c in candidates], 2.0 * radius_m
    )
    for i, j in zip(rows.tolist(), cols.tolist()):
        cand, other = candidates[i], candidates[j]
        if other > cand and coverage[cand] & coverage[other]:
            graph.add_edge(cand, other)
    return graph


def auxiliary_max_degree(aux_graph: nx.Graph) -> int:
    """``Δ_H`` — the maximum degree of the auxiliary graph.

    Appears in the approximation ratio (Theorem 1); Lemma 2 proves it
    is at most ``⌈8π⌉ = 26`` for any instance.
    """
    if aux_graph.number_of_nodes() == 0:
        return 0
    return max(dict(aux_graph.degree).values())


def conflict_free_components(
    aux_graph: nx.Graph, chosen: Iterable[int]
) -> Dict[int, int]:
    """Map each chosen node to a conflict-component id.

    Two chosen sojourn locations in different components can never
    overcharge a shared sensor regardless of timing; useful for
    diagnostics and for the validator's fast path.
    """
    chosen_set = set(chosen)
    sub = aux_graph.subgraph(chosen_set)
    component_of: Dict[int, int] = {}
    for comp_id, comp in enumerate(nx.connected_components(sub)):
        for node in comp:
            component_of[node] = comp_id
    return component_of
