"""Structured-array tour engine: index-space codecs + vectorised kernels.

This module is the only implementation of the tour steps Algorithm 1's
``K``-min-max subroutine runs: nearest-neighbour and greedy-edge
construction, 2-opt, Or-opt, the greedy split, the min-max split and
the energy-constrained dual split. The label-based front doors in
``tours/{tsp,improve,splitting,energy_budget}`` encode their inputs,
call a kernel here and decode the result.

* :class:`NodeIndexCodec` — a dense ``label <-> int32 index`` space over
  one tour's node set; the depot is always the *last* index
  (``codec.depot_index == len(labels)``), so a ``(n+1) x (n+1)`` matrix
  row/column addresses it uniformly.
* :class:`ArrayDistance` — the codec plus the dense float64 distance
  matrix exported by :meth:`DistanceCache.dense_matrix`.
* :class:`TourLegs` — per-position leg and service arrays of one visit
  order, the split kernels' input: :func:`tour_legs` builds them from
  label lookups, :func:`dense_tour_legs` gathers them from a matrix.
* kernels — :func:`two_opt_indices`, :func:`or_opt_indices`,
  :func:`greedy_split_cuts`, :func:`split_min_max_ranges`,
  :func:`split_dual_ranges`, :func:`nearest_neighbor_indices`,
  :func:`greedy_edge_indices`. The two local searches have a list path
  for short tours (:data:`_TWO_OPT_LIST_MAX`, :data:`_OR_OPT_LIST_MAX`):
  the same float expressions in the same scan order, on
  ``matrix.tolist()`` rows, where numpy's per-call set-up would cost
  more than the vector work saves.

Byte-parity contract
--------------------
Every float the kernels emit is **byte-identical** to the scalar label
loops they replaced; those loops are kept verbatim as the test oracle
in ``tests/_legacy_tours.py``. Two rules make that possible:

1. **Distances come from ``euclidean`` (``math.hypot``), never from a
   numpy reimplementation.** CPython's ``math.hypot`` is its own
   correctly-rounded algorithm (not libm), and ``np.hypot`` disagrees
   with it in the last ulp on ~0.6% of random pairs on x86-64 Linux —
   measured, not hypothetical. It is the repo's one distance rule: the
   disk queries of :mod:`repro.geometry.disk_index` decide membership
   with it too, and ``DistanceCache.dense_matrix`` fills the matrix
   with ``euclidean`` values; numpy only *gathers* and *combines* them.
2. **Numpy combines floats in the scalar evaluation order.** Elementwise
   ``+ - * /`` on float64 match scalar IEEE ops exactly, and
   ``np.cumsum`` accumulates sequentially — so running sums mirror
   ``acc += step`` loops bytewise. ``np.sum`` (pairwise) would not;
   it is deliberately never used here. Prefix-sum *differences* are
   likewise never used for costs (``(a+b)-a != b`` in floats): the
   min-max split builds, once per segment start it reaches, a fresh
   cumsum of that segment's steps plus the closing legs, kept as a
   running-max row; ``max`` never rounds, so each binary-search probe
   reads its next cut off the row with one bisection, byte-identical
   to the scalar packer. A probe also reports the interval of bounds
   between the row entries around each cut, where every bisection and
   hence its answer stays the same; the search takes a ``mid`` inside
   a known interval from that probe, and stops once the feasible and
   infeasible intervals touch, since no later probe can change its
   answer. The scalar search's ``low``/``high``/``mid`` floats and its
   final cuts are unchanged.

Every kernel needs a depot-carrying :class:`DistanceCache`; a depot-less
cache or duplicate labels raise ``ValueError``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.geometry.distcache import DistanceCache

#: Binary-search stopping rule of the min-max and dual splits.
_BINARY_SEARCH_REL_TOL = 1e-9
_BINARY_SEARCH_MAX_ITER = 100
#: Segment positions :func:`or_opt_indices` scores per numpy gather.
_OR_OPT_BLOCK = 64
#: Longest tours the local searches scan on Python lists rather than
#: numpy rows. Both paths make the same moves; each is faster on its
#: side of the size (DESIGN §16 has the measurement).
_TWO_OPT_LIST_MAX = 128
_OR_OPT_LIST_MAX = 16


def canonical_labels(labels: Sequence[Hashable]) -> Tuple[Hashable, ...]:
    """Order-independent canonical form of a node set.

    Sorted when the labels are mutually comparable (the common case:
    integer sensor ids), else first-seen order. Canonicalising the
    memo key lets every kernel over the same node *set* share one
    dense matrix regardless of visit order.
    """
    try:
        return tuple(sorted(labels))
    except TypeError:
        return tuple(labels)


class NodeIndexCodec:
    """Bidirectional ``label <-> int32 index`` map over one node set.

    Index ``i`` is position ``i`` in ``labels``; the depot is the extra
    index ``len(labels)`` so dense matrices address it as the last
    row/column without a sentinel label.
    """

    __slots__ = ("labels", "_index_of")

    def __init__(self, labels: Sequence[Hashable]):
        self.labels: Tuple[Hashable, ...] = tuple(labels)
        self._index_of: Dict[Hashable, int] = {
            label: i for i, label in enumerate(self.labels)
        }
        if len(self._index_of) != len(self.labels):
            raise ValueError("codec labels must be unique")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def depot_index(self) -> int:
        """The dense index reserved for the depot (always the last)."""
        return len(self.labels)

    def encode(self, order: Sequence[Hashable]) -> np.ndarray:
        """Labels -> contiguous int32 index array."""
        index_of = self._index_of
        return np.fromiter(
            (index_of[label] for label in order),
            dtype=np.int32,
            count=len(order),
        )

    def decode(self, indices: Sequence[int]) -> List[Hashable]:
        """Index array -> label list (depot index is not decodable)."""
        labels = self.labels
        return [labels[int(i)] for i in indices]


@dataclass(frozen=True, eq=False)
class ArrayDistance:
    """A codec plus the dense distance matrix over its index space.

    ``matrix[i, j]`` is the ``euclidean`` distance between the nodes at
    codec indices ``i`` and ``j``; row/column ``codec.depot_index`` is
    the depot. Entries are byte-identical to ``DistanceCache`` lookups.
    """

    codec: NodeIndexCodec
    matrix: np.ndarray

    @classmethod
    def from_cache(
        cls,
        dist: DistanceCache,
        labels: Sequence[Hashable],
    ) -> "ArrayDistance":
        """Build over ``labels`` (in the given order) from a cache.

        The underlying matrix is memoized on the cache under the
        *canonical* label order; a permuted view is gathered from it, so
        TSP construction (positional order) and splitting (visit order)
        share one O(n^2) build.
        """
        codec = NodeIndexCodec(labels)
        canon = canonical_labels(labels)
        matrix = dist.dense_matrix(canon)
        if canon != codec.labels:
            canon_index = {label: i for i, label in enumerate(canon)}
            perm = np.fromiter(
                (canon_index[label] for label in codec.labels),
                dtype=np.intp,
                count=len(codec.labels),
            )
            perm = np.append(perm, len(canon))  # depot stays last
            matrix = matrix[np.ix_(perm, perm)]
        return cls(codec, matrix)


# ---------------------------------------------------------------------------
# Local-search kernels (dense-matrix backed)
# ---------------------------------------------------------------------------


def two_opt_indices(
    matrix: np.ndarray,
    depot_index: int,
    order: np.ndarray,
    max_rounds: int = 30,
    min_gain: float = 1e-9,
) -> np.ndarray:
    """First-improvement 2-opt over index space; parity with the scalar
    oracle ``legacy_two_opt``.

    For each pivot ``i`` the candidate reversals ``order[i..j]`` are
    scored as ``(D[b,c_i] + D[c_j,a_j]) - (D[b,c_j] + D[c_i,a_j])`` and
    the first ``delta > min_gain`` is applied — exactly the legacy scan
    order, including rescanning the tail with the mutated order after a
    move. Tours of up to :data:`_TWO_OPT_LIST_MAX` nodes are scanned on
    Python lists, longer ones a numpy row per pivot; both make the same
    moves.
    """
    current = np.array(order, dtype=np.int32)
    if current.size < 3:
        return current
    if current.size <= _TWO_OPT_LIST_MAX:
        moved = _two_opt_lists(
            matrix.tolist(), depot_index, current.tolist(),
            max_rounds, min_gain,
        )
        return np.asarray(moved, dtype=np.int32)
    return _two_opt_rows(matrix, depot_index, current, max_rounds, min_gain)


def _two_opt_lists(
    rows: List[List[float]],
    depot_index: int,
    current: List[int],
    max_rounds: int,
    min_gain: float,
) -> List[int]:
    """:func:`two_opt_indices` on ``matrix.tolist()``, one ``j`` at a
    time; ``current`` is reversed in place and returned."""
    n = len(current)
    for _ in range(max_rounds):
        improved = False
        for i in range(n - 1):
            row_b = rows[depot_index if i == 0 else current[i - 1]]
            row_i = rows[current[i]]
            b_i = row_b[current[i]]
            for j in range(i + 1, n):
                node_j = current[j]
                after_j = current[j + 1] if j + 1 < n else depot_index
                delta = (b_i + rows[node_j][after_j]) - (
                    row_b[node_j] + row_i[after_j]
                )
                if delta > min_gain:
                    current[i : j + 1] = current[i : j + 1][::-1]
                    row_i = rows[current[i]]
                    b_i = row_b[current[i]]
                    improved = True
        if not improved:
            break
    return current


def _two_opt_rows(
    matrix: np.ndarray,
    depot_index: int,
    current: np.ndarray,
    max_rounds: int,
    min_gain: float,
) -> np.ndarray:
    """:func:`two_opt_indices` with each pivot's whole row of
    candidate reversals scored in one vector expression; ``current``
    is reversed in place and returned."""
    n = current.size
    for _ in range(max_rounds):
        improved = False
        for i in range(n - 1):
            before_i = depot_index if i == 0 else current[i - 1]
            j = i + 1
            while j < n:
                nodes_j = current[j:]
                after_j = np.empty(n - j, dtype=np.int32)
                after_j[:-1] = current[j + 1:]
                after_j[-1] = depot_index
                node_i = current[i]
                delta = (
                    matrix[before_i, node_i] + matrix[nodes_j, after_j]
                ) - (matrix[before_i, nodes_j] + matrix[node_i, after_j])
                hits = np.nonzero(delta > min_gain)[0]
                if not hits.size:
                    break
                j_star = j + int(hits[0])
                current[i : j_star + 1] = current[i : j_star + 1][::-1].copy()
                improved = True
                j = j_star + 1
        if not improved:
            break
    return current


def or_opt_indices(
    matrix: np.ndarray,
    depot_index: int,
    order: np.ndarray,
    segment_lengths: Sequence[int] = (1, 2, 3),
    max_rounds: int = 10,
    min_gain: float = 1e-9,
) -> np.ndarray:
    """Or-opt segment relocation; parity with the scalar oracle
    ``legacy_or_opt``.

    For each segment position in turn, every reinsertion edge
    ``(pred, succ)`` of the remaining tour is scored as
    ``(D[pred, first] + D[last, succ] - D[pred, succ]) - removal_gain``
    in insertion-position order, and the first strict minimum below
    ``-min_gain`` is applied; the same position is then examined again.
    Tours of up to :data:`_OR_OPT_LIST_MAX` nodes are scanned on Python
    lists, longer ones in numpy blocks; both make the same moves.
    """
    current = [int(x) for x in np.asarray(order).tolist()]
    if len(current) <= _OR_OPT_LIST_MAX:
        moved = _or_opt_lists(
            matrix.tolist(), depot_index, current,
            segment_lengths, max_rounds, min_gain,
        )
    else:
        moved = _or_opt_blocks(
            matrix, depot_index, current,
            segment_lengths, max_rounds, min_gain,
        )
    return np.asarray(moved, dtype=np.int32)


def _or_opt_lists(
    rows: List[List[float]],
    depot_index: int,
    current: List[int],
    segment_lengths: Sequence[int],
    max_rounds: int,
    min_gain: float,
) -> List[int]:
    """:func:`or_opt_indices` on ``matrix.tolist()``, one segment
    position and one reinsertion edge at a time."""
    n = len(current)
    for _ in range(max_rounds):
        improved = False
        for seg_len in segment_lengths:
            if n <= seg_len:
                continue
            i = 0
            while i + seg_len <= n:
                first = current[i]
                row_last = rows[current[i + seg_len - 1]]
                row_before = rows[current[i - 1] if i else depot_index]
                after = current[i + seg_len] if i + seg_len < n else depot_index
                removal_gain = (
                    row_before[first] + row_last[after]
                ) - row_before[after]
                rest = current[:i] + current[i + seg_len :]
                best_delta = -min_gain
                best_pos = -1
                pred = depot_index
                for pos, succ in enumerate([*rest, depot_index]):
                    row_pred = rows[pred]
                    delta = (
                        row_pred[first] + row_last[succ] - row_pred[succ]
                    ) - removal_gain
                    if delta < best_delta:
                        best_delta = delta
                        best_pos = pos
                    pred = succ
                if best_pos < 0:
                    i += 1
                    continue
                segment = current[i : i + seg_len]
                current = rest[:best_pos] + segment + rest[best_pos:]
                improved = True
        if not improved:
            break
    return current


def _or_opt_blocks(
    matrix: np.ndarray,
    depot_index: int,
    current: List[int],
    segment_lengths: Sequence[int],
    max_rounds: int,
    min_gain: float,
) -> List[int]:
    """:func:`or_opt_indices` scoring up to :data:`_OR_OPT_BLOCK`
    segment positions at once.

    Row ``r`` of a block holds, for every edge ``(pred, succ)`` of the
    current tour, ``(D[pred, first] + D[last, succ] - D[pred, succ]) -
    removal_gain`` — the legacy expression in the legacy order. The
    edges touching the segment are masked to ``inf`` except the first,
    which becomes the bridge ``(before, after)`` the removal leaves; its
    delta is ``removal_gain - removal_gain == 0``. Edge order is the
    legacy insertion-position order, so ``np.argmin`` (first occurrence
    of the minimum) picks the position the scalar scan keeps. Rows
    before the first one whose minimum is below ``-min_gain`` make no
    move, so that row's move is the one the sequential scan makes; it is
    applied and the next block starts at that row.
    """
    n = len(current)
    block = np.arange(_OR_OPT_BLOCK)
    # Per row of a block: the columns of the edges inside the segment
    # and the one leaving it, relative to the block's first row.
    passes = [
        (seg_len, block[:, None] + np.arange(1, seg_len + 1))
        for seg_len in segment_lengths
        if n > seg_len
    ]
    ext = heads = tails = edges = None
    for _ in range(max_rounds):
        improved = False
        for seg_len, masked in passes:
            rows = n - seg_len + 1
            i = 0
            while i < rows:
                if ext is None:
                    ext = np.array(
                        [depot_index, *current, depot_index], dtype=np.intp
                    )
                    heads, tails = ext[:-1], ext[1:]
                    edges = matrix[heads, tails]
                count = min(_OR_OPT_BLOCK, rows - i)
                befores = ext[i : i + count]
                firsts = ext[i + 1 : i + 1 + count]
                lasts = ext[i + seg_len : i + seg_len + count]
                afters = ext[i + seg_len + 1 : i + seg_len + 1 + count]
                removal_gain = (
                    matrix[befores, firsts] + matrix[lasts, afters]
                ) - matrix[befores, afters]
                delta = (
                    matrix[heads, firsts[:, None]]
                    + matrix[lasts[:, None], tails]
                    - edges
                ) - removal_gain[:, None]
                local = block[:count]
                delta[local[:, None], i + masked[:count]] = np.inf
                delta[local, i + local] = 0.0
                hits = np.flatnonzero(delta.min(axis=1) < -min_gain)
                if not hits.size:
                    i += count
                    continue
                i += int(hits[0])
                edge = int(np.argmin(delta[hits[0]]))
                pos = edge if edge <= i else edge - seg_len
                segment = current[i : i + seg_len]
                rest = current[:i] + current[i + seg_len :]
                current = rest[:pos] + segment + rest[pos:]
                ext = None
                improved = True
        if not improved:
            break
    return current


# ---------------------------------------------------------------------------
# Split kernels (leg-array backed)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TourLegs:
    """O(n) per-position leg/service arrays for one visit order.

    ``start_m[k]`` is the depot->node leg, ``chain_m[k]`` the leg from
    the previous node (``chain_m[0]`` unused), ``closing_m[k]`` the
    node->depot leg, all in metres; ``service_s[k]`` the node's service
    seconds. Built once per split call (by scalar cache lookups in
    :func:`tour_legs`, or gathered from a dense matrix by
    :func:`dense_tour_legs`) and reused across every binary-search
    iteration.
    """

    start_m: np.ndarray
    chain_m: np.ndarray
    closing_m: np.ndarray
    service_s: np.ndarray

    def __len__(self) -> int:
        return self.start_m.size


def tour_legs(
    dist: DistanceCache,
    order: Sequence[Hashable],
    service: Callable[[Hashable], float],
) -> TourLegs:
    """Build :class:`TourLegs` for ``order``.

    Distances come from scalar lookups on the depot-carrying ``dist``,
    so every entry is the cached ``euclidean`` float. ``service`` must
    be pure — it is evaluated once per node here.

    Raises:
        ValueError: when ``order`` is non-empty and ``dist`` has no
            depot.
    """
    n = len(order)
    start = np.fromiter(
        (dist(None, node) for node in order), dtype=np.float64, count=n
    )
    chain = np.empty(n, dtype=np.float64)
    if n:
        chain[0] = start[0]
        for k in range(1, n):
            chain[k] = dist(order[k - 1], order[k])
    closing = np.fromiter(
        (dist(node, None) for node in order), dtype=np.float64, count=n
    )
    svc = np.fromiter(
        (service(node) for node in order), dtype=np.float64, count=n
    )
    return TourLegs(start, chain, closing, svc)


def dense_tour_legs(
    dense: ArrayDistance, order: np.ndarray, service_s: np.ndarray
) -> TourLegs:
    """Build :class:`TourLegs` for a codec-index ``order`` by gathering
    from ``dense.matrix``; ``service_s[i]`` is the service seconds of
    codec index ``i``.

    The matrix holds the cache's ``euclidean`` floats, so the legs are
    byte-identical to :func:`tour_legs` over the decoded labels, with
    no per-leg cache lookup.
    """
    matrix = dense.matrix
    depot = dense.codec.depot_index
    start = matrix[depot, order]
    chain = np.empty(order.size, dtype=np.float64)
    if order.size:
        # The leg driven to reach each visit: the depot leg first, then
        # the leg from the previous visit.
        chain[0] = start[0]
        chain[1:] = matrix[order[:-1], order[1:]]
    return TourLegs(start, chain, matrix[order, depot], service_s[order])


#: A split probe's answer under one (slackened) bound: the cut
#: positions (``None`` when infeasible) and the half-open interval
#: ``[lo, hi)`` of bounds under which the answer cannot change.
ProbeAnswer = Tuple[Optional[List[int]], float, float]


def _greedy_packer(
    legs: TourLegs, speed_mps: float
) -> Callable[[float, Optional[int]], ProbeAnswer]:
    """The greedy consecutive packer over ``legs``, as a function of the
    bound; parity with the scalar oracle
    ``legacy_greedy_split_with_bound``.

    A segment opened at position ``s`` runs up the row
    ``R_s[k] = max_{j <= k}(cum_s[j] + closing_t[s + j])``, where
    ``cum_s`` is the ``np.cumsum`` of the segment's own steps —
    sequential accumulation, byte-matching the scalar
    ``open_cost += step`` loop (a prefix-sum *difference* would not).
    ``max`` never rounds and ``R_s`` is nondecreasing, so its first
    entry above the bound is the packer's first violation and
    ``bisect_right`` finds it. Each row is built once, on the first
    probe that opens a segment at ``s``, and lives as long as the
    returned function; a probe then costs O(segments * log n).

    A probe returns what :func:`greedy_split_cuts` documents, plus the
    interval ``[lo, hi)`` with ``lo = max R_s[reach - 1]`` and
    ``hi = min R_s[reach]`` over the rows it read (``-inf``/``inf``
    where ``reach`` is at a row's end): every ``bisect_right`` of the
    walk, hence its answer, is the same for any bound in it.
    """
    n = len(legs)
    start_step = legs.start_m / speed_mps + legs.service_s
    chain_step = legs.chain_m / speed_mps + legs.service_s
    closing_t = legs.closing_m / speed_mps
    rows: Dict[int, List[float]] = {}

    def row(s: int) -> List[float]:
        steps = chain_step[s:].copy()
        steps[0] = start_step[s]
        running = np.cumsum(steps) + closing_t[s:]
        rows[s] = np.maximum.accumulate(running).tolist()
        return rows[s]

    def cuts_under(
        bound: float, max_segments: Optional[int] = None
    ) -> ProbeAnswer:
        cuts: List[int] = []
        lo, hi = -math.inf, math.inf
        s = 0
        while True:
            r = rows.get(s) or row(s)
            reach = bisect_right(r, bound)
            if reach < len(r):
                hi = min(hi, r[reach])
            if not reach:
                return None, lo, hi  # single node infeasible
            lo = max(lo, r[reach - 1])
            s += reach
            if s == n:
                return cuts, lo, hi
            cuts.append(s)
            if max_segments is not None and len(cuts) >= max_segments:
                return None, lo, hi

    return cuts_under


def greedy_split_cuts(
    legs: TourLegs,
    bound: float,
    speed_mps: float,
    max_segments: Optional[int] = None,
) -> Optional[List[int]]:
    """Greedy segment cut positions under ``bound``; parity with the
    scalar oracle ``legacy_greedy_split_with_bound``.

    Returns the sorted positions where a new segment starts (``0`` is
    implicit), or ``None`` when a single node is infeasible — and, as a
    pure short-circuit, when more than ``max_segments`` segments would
    be needed (the caller's verdict is ``None`` either way). One probe
    of the running-max packer the min-max split uses.
    """
    if not len(legs):
        return []
    return _greedy_packer(legs, speed_mps)(bound, max_segments)[0]


def _cut_ranges(cuts: Sequence[int], n: int) -> List[Tuple[int, int]]:
    bounds = [0, *cuts, n]
    return [
        (bounds[k], bounds[k + 1])
        for k in range(len(bounds) - 1)
        if bounds[k] < bounds[k + 1]
    ]


def range_cost(
    legs: TourLegs, start: int, stop: int, speed_mps: float
) -> float:
    """Delay of the closed tour over positions ``[start, stop)``; parity
    with :func:`repro.tours.splitting.segment_cost` on that slice."""
    if start >= stop:
        return 0.0
    m = stop - start
    travel_legs = np.empty(m + 1, dtype=np.float64)
    travel_legs[0] = legs.start_m[start]
    travel_legs[1:m] = legs.chain_m[start + 1 : stop]
    travel_legs[m] = legs.closing_m[stop - 1]
    travel = np.cumsum(travel_legs)[-1]
    return float(
        travel / speed_mps + np.cumsum(legs.service_s[start:stop])[-1]
    )


def _split_bounds(legs: TourLegs, speed_mps: float) -> Tuple[float, float]:
    """Legacy low/high bounds: costliest single-node round trip and the
    whole order as one segment."""
    single = (legs.start_m + legs.closing_m) / speed_mps + legs.service_s
    low = float(np.max(single))
    high = range_cost(legs, 0, len(legs), speed_mps)
    return low, high


def _bisect_split(
    legs: TourLegs, speed_mps: float, probe: Callable[[float], ProbeAnswer]
) -> Tuple[Optional[List[Tuple[int, int]]], float]:
    """The scalar oracle's binary search over the bound, shared by both
    splits.

    ``probe`` answers a slackened bound. The ``low``/``high``/``mid``
    arithmetic and the stopping rule are the scalar oracle's; a ``mid``
    inside the last feasible or infeasible probe's interval takes that
    probe's answer without a walk, and once the two intervals touch no
    later probe can change ``best``, so the search stops. Returns
    ``(None, inf)`` when even the whole order as one segment fails.
    """
    n = len(legs)
    if not n:
        return [], 0.0

    def slack(bound: float) -> float:
        return bound * (1.0 + 1e-12) + 1e-9

    low, high = _split_bounds(legs, speed_mps)
    best, fit_lo, fit_hi = probe(slack(high))
    if best is None:
        return None, math.inf
    cuts, miss_lo, miss_hi = probe(slack(low))
    if cuts is not None:
        best = cuts
    else:
        for _ in range(_BINARY_SEARCH_MAX_ITER):
            if miss_hi == fit_lo:
                break
            if high - low <= _BINARY_SEARCH_REL_TOL * max(high, 1.0):
                break
            mid = (low + high) / 2.0
            bound = slack(mid)
            if fit_lo <= bound < fit_hi:
                high = mid
            elif miss_lo <= bound < miss_hi:
                low = mid
            else:
                cuts, lo, hi = probe(bound)
                if cuts is None:
                    low, miss_lo, miss_hi = mid, lo, hi
                else:
                    high, best, fit_lo, fit_hi = mid, cuts, lo, hi
    ranges = _cut_ranges(best, n)
    achieved = max(range_cost(legs, s, e, speed_mps) for s, e in ranges)
    return ranges, achieved


def split_min_max_ranges(
    legs: TourLegs,
    num_tours: int,
    speed_mps: float,
) -> Tuple[List[Tuple[int, int]], float]:
    """Binary-searched min-max split as position ranges; parity with
    the scalar oracle ``legacy_split_tour_min_max``. Every probe runs
    one :func:`_greedy_packer`, so the rows one probe builds serve all
    later probes of the call, and its intervals let the search skip
    walks whose answer is already known.

    Raises:
        ValueError: if the whole order does not fit one segment, which
            only non-metric legs allow.
    """
    cuts_under = _greedy_packer(legs, speed_mps)
    ranges, achieved = _bisect_split(
        legs, speed_mps, lambda bound: cuts_under(bound, num_tours)
    )
    if ranges is None:
        raise ValueError(
            "the whole order must fit one segment, but with these "
            "(non-metric) legs one node's round trip costs more than "
            "the whole order"
        )
    return ranges, achieved


def split_dual_ranges(
    legs: TourLegs,
    num_tours: int,
    speed_mps: float,
    travel_j_per_m: float,
    drain_w: float,
    battery_j: float,
) -> Tuple[Optional[List[Tuple[int, int]]], float]:
    """Energy-and-delay constrained split as position ranges; parity
    with the scalar oracle ``legacy_split_tour_energy_constrained``.

    ``drain_w`` is the charger's drawn power ``charge_rate_w /
    transfer_efficiency`` (pre-divided once — the scalar expression
    groups as ``(rate / eff) * seconds``, so the product is identical).
    Its probe reports the empty interval ``[b, b)``, so the search
    walks every probe the scalar oracle makes.
    """
    n = len(legs)
    start_t = legs.start_m / speed_mps
    chain_t = legs.chain_m / speed_mps
    closing_t = legs.closing_m / speed_mps
    svc = legs.service_s

    def cuts_under(delay_bound_s: float) -> Optional[List[int]]:
        cuts: List[int] = []
        s = 0
        while s < n:
            leg_m = legs.chain_m[s:].copy()
            leg_m[0] = legs.start_m[s]
            leg_t = chain_t[s:].copy()
            leg_t[0] = start_t[s]
            svc_seg = svc[s:]
            # Sequential accumulations, shifted to "before this node";
            # the candidate expressions below then regroup exactly as
            # the scalar oracle does.
            step_t = leg_t + svc_seg
            acc = np.cumsum(step_t)
            open_cost = np.empty_like(acc)
            open_cost[0] = 0.0
            open_cost[1:] = acc[:-1]
            acc_m = np.cumsum(leg_m)
            open_travel = np.empty_like(acc_m)
            open_travel[0] = 0.0
            open_travel[1:] = acc_m[:-1]
            acc_c = np.cumsum(svc_seg)
            open_charge = np.empty_like(acc_c)
            open_charge[0] = 0.0
            open_charge[1:] = acc_c[:-1]
            cost = ((open_cost + leg_t) + svc_seg) + closing_t[s:]
            travel = (open_travel + leg_m) + legs.closing_m[s:]
            charge = open_charge + svc_seg
            energy = travel_j_per_m * travel + drain_w * charge
            violates = ~((cost <= delay_bound_s) & (energy <= battery_j))
            if violates[0]:
                return None
            hits = np.nonzero(violates)[0]
            if not hits.size:
                break
            s += int(hits[0])
            cuts.append(s)
        return cuts

    def probe(bound: float) -> ProbeAnswer:
        cuts = cuts_under(bound)
        if cuts is not None and len(cuts) + 1 > num_tours:
            cuts = None
        return cuts, bound, bound

    return _bisect_split(legs, speed_mps, probe)


# ---------------------------------------------------------------------------
# TSP construction kernels
# ---------------------------------------------------------------------------


def nearest_neighbor_indices(
    dense: ArrayDistance,
) -> np.ndarray:
    """Depot-rooted nearest-neighbour order; parity with the scalar
    oracle ``nearest_neighbor_tour`` started at the depot.

    The scalar tie-break is ``(distance, str(label))``; distance ties
    are resolved here by a precomputed string rank over the codec's
    labels, which picks the identical node.
    """
    n = len(dense.codec)
    matrix = dense.matrix
    by_str = sorted(range(n), key=lambda k: str(dense.codec.labels[k]))
    rank = np.empty(n, dtype=np.int64)
    rank[by_str] = np.arange(n)
    remaining = np.arange(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int32)
    current = dense.codec.depot_index
    for out in range(n):
        values = matrix[current, remaining]
        lowest = values.min()
        ties = remaining[values == lowest]
        if ties.size > 1:
            chosen = int(ties[np.argmin(rank[ties])])
        else:
            chosen = int(ties[0])
        order[out] = chosen
        remaining = remaining[remaining != chosen]
        current = chosen
    return order


def greedy_edge_indices(dense: ArrayDistance) -> np.ndarray:
    """Greedy-edge cycle rotated to start just after the depot; parity
    with the scalar oracle ``greedy_edge_tour`` over
    ``node_list + [DEPOT]``.

    The scalar edge sort key is ``(distance, i, j)`` over positional
    indices with the depot last — exactly this codec's index space, so
    ``np.lexsort`` with keys ``(j, i, distance)`` reproduces the edge
    order; degree/union-find filtering then walks it identically.
    """
    m = len(dense.codec) + 1  # real nodes + depot
    matrix = dense.matrix
    idx_i, idx_j = np.triu_indices(m, k=1)
    lengths = matrix[idx_i, idx_j]
    edge_order = np.lexsort((idx_j, idx_i, lengths))
    idx_i = idx_i[edge_order]
    idx_j = idx_j[edge_order]

    degree = [0] * m
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adjacency: Dict[int, List[int]] = {i: [] for i in range(m)}
    added = 0
    for a, b in zip(idx_i.tolist(), idx_j.tolist()):
        if added == m - 1:
            break
        if degree[a] >= 2 or degree[b] >= 2:
            continue
        root_a, root_b = find(a), find(b)
        if root_a == root_b:
            continue
        parent[root_a] = root_b
        degree[a] += 1
        degree[b] += 1
        adjacency[a].append(b)
        adjacency[b].append(a)
        added += 1
    endpoints = [i for i in range(m) if degree[i] == 1]
    assert len(endpoints) == 2, "greedy edge construction left a broken path"
    adjacency[endpoints[0]].append(endpoints[1])
    adjacency[endpoints[1]].append(endpoints[0])

    depot = dense.codec.depot_index
    order: List[int] = []
    prev: Optional[int] = None
    current = depot
    while True:
        nxt = next(n for n in adjacency[current] if n != prev)
        if nxt == depot:
            break
        order.append(nxt)
        prev, current = current, nxt
    return np.asarray(order, dtype=np.int32)


__all__ = [
    "ArrayDistance",
    "NodeIndexCodec",
    "TourLegs",
    "canonical_labels",
    "dense_tour_legs",
    "greedy_edge_indices",
    "greedy_split_cuts",
    "nearest_neighbor_indices",
    "or_opt_indices",
    "range_cost",
    "split_dual_ranges",
    "split_min_max_ranges",
    "tour_legs",
    "two_opt_indices",
]
