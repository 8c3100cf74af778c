"""Christofides' 1.5-approximation over a dense distance matrix.

:func:`christofides_indices` is the ``"christofides"`` construction of
:func:`repro.tours.tsp.build_tsp_order`. It runs in the index space of
:class:`repro.tours.arrays.ArrayDistance` (the depot is the last
row/column) on plain Python lists of the matrix's floats, and returns
exactly the tour NetworkX 3.6's ``approximation.christofides``
returns for the complete graph over the same nodes, rotated to the
depot. Every step reproduces NetworkX's iteration order, because the
tour depends on how ties are broken:

1. **Kruskal.** Edges ``(i, j)``, ``i < j``, in lexicographic order,
   stable-sorted by weight; the tree's adjacency lists keep insertion
   (acceptance) order.
2. **Odd vertices** in node order; matching weights are
   ``maxw - w`` with ``maxw = 1 + max(w)`` over their pairs, as
   NetworkX's ``min_weight_matching`` builds them.
3. **Blossom** (:func:`_max_weight_matching`): vertices in ascending
   order, live blossoms in creation order after them, neighbour scans
   in ascending id, and the first ``delta`` to reach the minimum wins.
   Two odd vertices skip it: their one perfect matching is the pair.
4. **Euler circuit.** The multigraph holds the tree edges in
   ``tree.edges`` order, then the matched pairs; ``eulerian_circuit``
   copies it (node order, adjacency order, key order) and runs
   Hierholzer from its first node, always taking the first neighbour
   and the first key. Repeated nodes are then shortcut.

``tests/test_tours_christofides.py`` pins this against NetworkX node
for node.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

# The blossom below is NetworkX 3.6's ``max_weight_matching``, itself
# adapted from Joris van Rantwijk's mwmatching.py, rewritten over
# integer vertex and blossom ids and list-backed state. It carries the
# NetworkX licence:
#
# Copyright (c) 2004-2025, NetworkX Developers
# Aric Hagberg <hagberg@lanl.gov>
# Dan Schult <dschult@colgate.edu>
# Pieter Swart <swart@lanl.gov>
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are
# met:
#
#   * Redistributions of source code must retain the above copyright
#     notice, this list of conditions and the following disclaimer.
#
#   * Redistributions in binary form must reproduce the above
#     copyright notice, this list of conditions and the following
#     disclaimer in the documentation and/or other materials provided
#     with the distribution.
#
#   * Neither the name of the NetworkX Developers nor the names of its
#     contributors may be used to endorse or promote products derived
#     from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

Edge = Tuple[int, int]

#: Matrix sizes whose Kruskal candidate pairs are kept for reuse (all
#: of them together hold under 1 MB); larger matrices build their own.
_CACHED_PAIRS_MAX = 64


def christofides_indices(matrix: np.ndarray) -> List[int]:
    """Christofides' tour over a symmetric distance matrix whose last
    row/column is the depot, as the visit order after the depot.

    Needs at least three real nodes (four rows); smaller instances take
    the double-MST walk in :func:`repro.tours.tsp.build_tsp_order`.
    """
    size = len(matrix)
    if size < 4:
        raise ValueError(f"christofides needs >= 4 matrix rows, got {size}")
    dist = matrix.tolist()
    tree = _kruskal_adjacency(matrix)
    odd = [v for v in range(size) if len(tree[v]) % 2]
    mate = _min_weight_perfect_matching(dist, odd)
    walk = _euler_shortcut(tree, [(odd[a], odd[b]) for a, b in mate])
    pivot = walk.index(size - 1)
    return walk[pivot + 1:] + walk[:pivot]


def _kruskal_adjacency(matrix: np.ndarray) -> List[List[int]]:
    """The minimum spanning tree NetworkX's Kruskal picks, as adjacency
    lists in edge-acceptance order."""
    size = len(matrix)
    if size <= _CACHED_PAIRS_MAX:
        rows, cols = _upper_pairs(size)
    else:
        rows, cols = np.triu_indices(size, k=1)
    by_weight = np.argsort(matrix[rows, cols], kind="stable")
    parent = list(range(size))
    adjacency: List[List[int]] = [[] for _ in range(size)]
    accepted = 0
    for u, v in zip(rows[by_weight].tolist(), cols[by_weight].tolist()):
        root_u = u
        while parent[root_u] != root_u:
            root_u = parent[root_u]
        root_v = v
        while parent[root_v] != root_v:
            root_v = parent[root_v]
        if root_u == root_v:
            continue
        parent[root_u] = root_v
        adjacency[u].append(v)
        adjacency[v].append(u)
        accepted += 1
        if accepted == size - 1:
            break
    return adjacency


@lru_cache(maxsize=None)
def _upper_pairs(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(size, k=1)``, built once per size and read-only."""
    rows, cols = np.triu_indices(size, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _min_weight_perfect_matching(
    dist: List[List[float]], odd: List[int]
) -> List[Edge]:
    """NetworkX's ``min_weight_matching`` over the complete graph on
    ``odd``, as pairs of positions in ``odd``.

    Two vertices have one perfect matching, the pair itself, which is
    what the blossom returns for them; four or more go through the
    blossom, whose float tie-breaks pick among equal-weight matchings.
    """
    if len(odd) == 2:
        return [(0, 1)]
    maxw = 1 + max(
        dist[u][v] for i, u in enumerate(odd) for v in odd[i + 1:]
    )
    weights = [[maxw - dist[u][v] for v in odd] for u in odd]
    mate = _max_weight_matching(weights)
    return [(v, w) for v, w in enumerate(mate) if v < w]


def _euler_shortcut(tree: List[List[int]], matched: List[Edge]) -> List[int]:
    """The shortcut Euler circuit of ``tree`` plus ``matched``, in the
    order NetworkX's ``eulerian_circuit`` walks the multigraph."""
    size = len(tree)
    # MultiGraph(tree.edges) + matched pairs: per node, neighbour ->
    # key list, the list shared by both endpoints.
    # The dict's own key order is the multigraph's node order.
    adjacency: Dict[int, Dict[int, List[int]]] = {}
    for u in range(size):
        for v in tree[u]:
            if v > u:
                adjacency.setdefault(u, {})
                adjacency.setdefault(v, {})
                adjacency[u][v] = adjacency[v][u] = [0]
    for u, v in matched:
        keys = adjacency[u].get(v)
        if keys is None:
            adjacency[u][v] = adjacency[v][u] = [0]
        else:
            keys.append(1)
    # eulerian_circuit works on G.copy(), which re-inserts every edge
    # in node order, adjacency order and key order.
    copy: Dict[int, Dict[int, List[int]]] = {node: {} for node in adjacency}
    for u, neighbours in adjacency.items():
        for v, keys in neighbours.items():
            if v not in copy[u]:
                copy[u][v] = copy[v][u] = list(keys)
    source = next(iter(copy))
    stack = [source]
    walk: List[int] = []
    seen = set()
    while stack:
        current = stack[-1]
        neighbours = copy[current]
        if not neighbours:
            stack.pop()
            if current not in seen:
                seen.add(current)
                walk.append(current)
            continue
        nxt = next(iter(neighbours))
        keys = neighbours[nxt]
        keys.pop(0)
        if not keys:
            del neighbours[nxt]
            del copy[nxt][current]
        stack.append(nxt)
    return walk


def _max_weight_matching(weights: List[List[float]]) -> List[int]:
    """Maximum-cardinality maximum-weight matching of the complete
    graph with edge weights ``weights[v][w]``; ``mate[v]`` per vertex.

    NetworkX's ``max_weight_matching(G, maxcardinality=True)`` with the
    vertices relabelled ``0..n-1`` in ``G``'s node order. Blossoms are
    ids ``n..2n-1`` (fewer than ``n`` are ever alive at once); a missing
    label is ``0`` and a missing vertex or parent ``-1``. Weights are
    floats, so ``delta3`` is ``kslack / 2.0`` and, as in NetworkX, the
    optimum is not re-verified.
    """
    n = len(weights)
    nb = 2 * n
    twice = [[2 * w for w in row] for row in weights]
    neighbours = [[w for w in range(n) if w != v] for v in range(n)]
    maxweight = 0
    for v in range(n):
        for w in range(v + 1, n):
            if weights[v][w] > maxweight:
                maxweight = weights[v][w]

    mate = [-1] * n
    label = [0] * nb
    labeledge: List[Optional[Edge]] = [None] * nb
    inblossom = list(range(n))
    blossomparent = [-1] * nb
    blossombase = list(range(n)) + [-1] * n
    bestedge: List[Optional[Edge]] = [None] * nb
    dualvar = [maxweight] * n
    blossomdual = [0] * nb
    childs: List[List[int]] = [[] for _ in range(nb)]
    edges: List[List[Edge]] = [[] for _ in range(nb)]
    mybestedges: List[Optional[List[Edge]]] = [None] * nb
    # Live blossoms in creation order (NetworkX's dict order); ids of
    # expanded blossoms are reused from ``unused``.
    live: Dict[int, None] = {}
    unused = list(range(nb - 1, n - 1, -1))
    allowed = [False] * (n * n)
    queue: List[int] = []

    def slack(v: int, w: int) -> float:
        return dualvar[v] + dualvar[w] - twice[v][w]

    def leaves(b: int) -> List[int]:
        if b < n:
            return [b]
        out = []
        stack = list(childs[b])
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(childs[t])
            else:
                out.append(t)
        return out

    def assign_label(w: int, t: int, v: int) -> None:
        while True:
            b = inblossom[w]
            label[w] = label[b] = t
            labeledge[w] = labeledge[b] = None if v < 0 else (v, w)
            bestedge[w] = bestedge[b] = None
            if t == 1:
                queue.extend(leaves(b))
                return
            base = blossombase[b]
            w, t, v = mate[base], 1, base

    def scan_blossom(v: int, w: int) -> int:
        path = []
        base = -1
        while v >= 0:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = -1
            else:
                v = labeledge[b][0]
                b = inblossom[v]
                v = labeledge[b][0]
            if w >= 0:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int) -> None:
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unused.pop()
        live[b] = None
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        childs[b] = path = []
        edges[b] = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            w = labeledge[bw][0]
            bw = inblossom[w]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        bestedgeto: Dict[int, Edge] = {}
        for bv in path:
            if bv >= n:
                if mybestedges[bv] is not None:
                    nblist = mybestedges[bv]
                    mybestedges[bv] = None
                else:
                    nblist = [
                        (v, w) for v in leaves(bv) for w in neighbours[v]
                    ]
            else:
                nblist = [(bv, w) for w in neighbours[bv]]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label[bj] == 1
                    and (
                        bj not in bestedgeto
                        or slack(i, j) < slack(*bestedgeto[bj])
                    )
                ):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        mybestedge = None
        mybestslack = 0.0
        for k in mybestedges[b]:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(b: int, endstage: bool) -> None:
        # NetworkX's trampoline: each generator yields the sub-blossoms
        # to expand recursively before it resumes.
        def recurse(b: int) -> Iterator[int]:
            for s in childs[b]:
                blossomparent[s] = -1
                if s >= n:
                    if endstage and blossomdual[s] == 0:
                        yield s
                    else:
                        for v in leaves(s):
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            if not endstage and label[b] == 2:
                bchilds = childs[b]
                bedges = edges[b]
                entrychild = inblossom[labeledge[b][1]]
                j = bchilds.index(entrychild)
                if j & 1:
                    j -= len(bchilds)
                    jstep = 1
                else:
                    jstep = -1
                v, w = labeledge[b]
                while j != 0:
                    if jstep == 1:
                        p, q = bedges[j]
                    else:
                        q, p = bedges[j - 1]
                    label[w] = 0
                    label[q] = 0
                    assign_label(w, 2, v)
                    allowed[p * n + q] = allowed[q * n + p] = True
                    j += jstep
                    if jstep == 1:
                        v, w = bedges[j]
                    else:
                        w, v = bedges[j - 1]
                    allowed[v * n + w] = allowed[w * n + v] = True
                    j += jstep
                bw = bchilds[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                j += jstep
                while bchilds[j] != entrychild:
                    bv = bchilds[j]
                    if label[bv] == 1:
                        j += jstep
                        continue
                    if bv >= n:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    if label[v]:
                        label[v] = 0
                        label[mate[blossombase[bv]]] = 0
                        assign_label(v, 2, labeledge[v][0])
                    j += jstep
            label[b] = 0
            labeledge[b] = None
            bestedge[b] = None
            mybestedges[b] = None
            blossomparent[b] = -1
            blossombase[b] = -1
            blossomdual[b] = 0
            del live[b]
            unused.append(b)

        stack = [recurse(b)]
        while stack:
            for s in stack[-1]:
                stack.append(recurse(s))
                break
            else:
                stack.pop()

    def augment_blossom(b: int, v: int) -> None:
        def recurse(b: int, v: int) -> Iterator[Tuple[int, int]]:
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if t >= n:
                yield (t, v)
            bchilds = childs[b]
            bedges = edges[b]
            i = j = bchilds.index(t)
            if i & 1:
                j -= len(bchilds)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = bchilds[j]
                if jstep == 1:
                    w, x = bedges[j]
                else:
                    x, w = bedges[j - 1]
                if t >= n:
                    yield (t, w)
                j += jstep
                t = bchilds[j]
                if t >= n:
                    yield (t, x)
                mate[w] = x
                mate[x] = w
            childs[b] = bchilds[i:] + bchilds[:i]
            edges[b] = bedges[i:] + bedges[:i]
            blossombase[b] = blossombase[childs[b][0]]

        stack = [recurse(b, v)]
        while stack:
            for args in stack[-1]:
                stack.append(recurse(*args))
                break
            else:
                stack.pop()

    def augment_matching(v: int, w: int) -> None:
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = s

    while True:
        # One stage: find an augmenting path and improve the matching.
        label[:] = [0] * nb
        labeledge[:] = [None] * nb
        bestedge[:] = [None] * nb
        for b in live:
            mybestedges[b] = None
        allowed[:] = [False] * (n * n)
        queue.clear()
        for v in range(n):
            if mate[v] < 0 and not label[inblossom[v]]:
                assign_label(v, 1, -1)

        augmented = False
        while True:
            # One substage: label until augmenting, else adjust duals.
            while queue and not augmented:
                v = queue.pop()
                bv = inblossom[v]
                row = n * v
                twice_v = twice[v]
                dual_v = dualvar[v]
                for w in neighbours[v]:
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if not allowed[row + w]:
                        kslack = dual_v + dualvar[w] - twice_v[w]
                        if kslack <= 0:
                            allowed[row + w] = allowed[n * w + v] = True
                    if allowed[row + w]:
                        if not label[bw]:
                            assign_label(w, 2, v)
                        elif label[bw] == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, v, w)
                                bv = inblossom[v]
                            else:
                                augment_matching(v, w)
                                augmented = True
                                break
                        elif not label[w]:
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label[bw] == 1:
                        # slack(*best), inlined: this scan is the hot loop.
                        best = bestedge[bv]
                        if best is None or kslack < (
                            dualvar[best[0]] + dualvar[best[1]]
                            - twice[best[0]][best[1]]
                        ):
                            bestedge[bv] = (v, w)
                    elif not label[w]:
                        best = bestedge[w]
                        if best is None or kslack < (
                            dualvar[best[0]] + dualvar[best[1]]
                            - twice[best[0]][best[1]]
                        ):
                            bestedge[w] = (v, w)
            if augmented:
                break

            deltatype = -1
            delta = 0.0
            deltaedge: Optional[Edge] = None
            deltablossom = -1
            for v in range(n):
                if not label[inblossom[v]] and bestedge[v] is not None:
                    d = slack(*bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]
            for b in [*range(n), *live]:
                if (
                    blossomparent[b] < 0
                    and label[b] == 1
                    and bestedge[b] is not None
                ):
                    d = slack(*bestedge[b]) / 2.0
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]
            for b in live:
                if (
                    blossomparent[b] < 0
                    and label[b] == 2
                    and (deltatype == -1 or blossomdual[b] < delta)
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b
            if deltatype == -1:
                deltatype = 1
                delta = max(0, min(dualvar))

            for v in range(n):
                vlabel = label[inblossom[v]]
                if vlabel == 1:
                    dualvar[v] -= delta
                elif vlabel == 2:
                    dualvar[v] += delta
            for b in live:
                if blossomparent[b] < 0:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            if deltatype == 4:
                expand_blossom(deltablossom, False)
            else:
                v, w = deltaedge
                allowed[v * n + w] = allowed[w * n + v] = True
                queue.append(v)

        if not augmented:
            break
        for b in list(live):
            if b not in live:
                continue
            if blossomparent[b] < 0 and label[b] == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    return mate
