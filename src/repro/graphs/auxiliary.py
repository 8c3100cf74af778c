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

from typing import Dict, FrozenSet, Iterable, List, Mapping

from repro.geometry.disk_index import DiskIndex
from repro.geometry.point import Point
from repro.graphs.adjacency import NeighborRows


def build_auxiliary_graph(
    sojourn_candidates: Iterable[int],
    coverage: Mapping[int, FrozenSet[int]],
    positions: Mapping[int, Point],
    radius_m: float,
) -> NeighborRows:
    """Build ``H`` over the candidate sojourn locations.

    Args:
        sojourn_candidates: the MIS ``S_I`` of the charging graph.
        coverage: ``N_c⁺(v)`` per candidate (from
            :func:`repro.graphs.coverage.coverage_sets`).
        positions: id -> position (used to prune candidate pairs to
            those within ``2γ`` before the exact set test).
        radius_m: the charging radius ``γ``.

    Returns:
        :class:`~repro.graphs.adjacency.NeighborRows` with an edge
        wherever two candidates' disks share at least one sensor.
    """
    if radius_m <= 0:
        raise ValueError(f"charging radius must be positive, got {radius_m}")
    candidates = sorted(set(sojourn_candidates))
    # Disk intersection requires centre distance <= 2γ: one pair query
    # yields every such pair, in (cand, other) index order, so
    # appending both ways keeps every row ascending.
    index = DiskIndex({c: positions[c] for c in candidates})
    rows, cols = index.self_pairs_within(2.0 * radius_m)
    adjacency: Dict[int, List[int]] = {c: [] for c in candidates}
    for i, j in zip(rows.tolist(), cols.tolist()):
        if j > i:
            cand, other = candidates[i], candidates[j]
            if not coverage[cand].isdisjoint(coverage[other]):
                adjacency[cand].append(other)
                adjacency[other].append(cand)
    return NeighborRows({c: tuple(row) for c, row in adjacency.items()})


def auxiliary_max_degree(aux_graph: NeighborRows) -> int:
    """``Δ_H`` — the maximum degree of the auxiliary graph.

    Appears in the approximation ratio (Theorem 1); Lemma 2 proves it
    is at most ``⌈8π⌉ = 26`` for any instance.
    """
    return max(map(aux_graph.degree, aux_graph.nodes), default=0)


def conflict_free_components(
    aux_graph: NeighborRows, chosen: Iterable[int]
) -> Dict[int, int]:
    """Map each chosen node to a conflict-component id.

    Components are those of ``H`` restricted to the chosen nodes (ids
    not in ``H`` are ignored), numbered in order of their smallest
    member. Two chosen sojourn locations in different components can
    never overcharge a shared sensor regardless of timing; useful for
    diagnostics and for the validator's fast path.
    """
    chosen_set = {node for node in chosen if node in aux_graph}
    component_of: Dict[int, int] = {}
    comp_id = -1
    for start in sorted(chosen_set):
        if start in component_of:
            continue
        comp_id += 1
        component_of[start] = comp_id
        stack = [start]
        while stack:
            for nbr in aux_graph.neighbors(stack.pop()):
                if nbr in chosen_set and nbr not in component_of:
                    component_of[nbr] = comp_id
                    stack.append(nbr)
    return component_of
