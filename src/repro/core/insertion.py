"""The extension step of Algorithm 1 (Eqs. 7–9, 13).

After the initial ``V'_H`` tours exist, every remaining candidate
sojourn location ``u ∈ S_I \\ V'_H`` is either skipped (its disk is
already fully covered) or inserted into one of the K tours. The paper
splits a candidate's auxiliary-graph neighbourhood as
``N_H(u) = N'_H(u) ∪ N''_H(u)`` — scheduled vs not-yet-scheduled — and

* orders candidates by the *latest charging finish time among
  scheduled neighbours*, ``f_N(u)`` (Eq. 8), ascending;
* inserts ``u`` immediately after the scheduled neighbour with the
  maximum finish time (Eqs. 9 and 13 — the same argmax; cases (i) and
  (ii) differ only in whether those neighbours sit on one tour or
  several).

Inserting after the *latest-finishing* neighbour is what keeps the
construction conflict-free: by the time the MCV reaches ``u``, every
neighbouring stop whose disk could intersect ``u``'s has finished
charging.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.schedule import ChargingSchedule
from repro.graphs.adjacency import NeighborRows


def scheduled_neighbors(
    node: int, aux_graph: NeighborRows, schedule: ChargingSchedule
) -> List[int]:
    """``N'_H(node)`` — the node's H-neighbours already on some tour."""
    return [
        nbr for nbr in aux_graph.neighbors(node) if schedule.is_scheduled(nbr)
    ]


def latest_neighbor_finish(
    node: int, aux_graph: NeighborRows, schedule: ChargingSchedule
) -> Optional[float]:
    """Eq. (8): ``f_N(node)``, or ``None`` when no neighbour is
    scheduled yet (cannot happen for the first candidate processed, by
    maximality of ``V'_H``, but can transiently for later ones)."""
    finishes = [
        schedule.finish[nbr]
        for nbr in scheduled_neighbors(node, aux_graph, schedule)
    ]
    return max(finishes) if finishes else None


def choose_insertion_anchor(
    node: int, aux_graph: NeighborRows, schedule: ChargingSchedule
) -> Tuple[int, int]:
    """Eqs. (9)/(13): the scheduled neighbour with maximum finish time.

    Returns:
        ``(tour_index, anchor_node)`` — insert ``node`` into that tour
        immediately after ``anchor_node``.

    Raises:
        ValueError: if no neighbour of ``node`` is scheduled.
    """
    candidates = scheduled_neighbors(node, aux_graph, schedule)
    if not candidates:
        raise ValueError(
            f"node {node} has no scheduled auxiliary-graph neighbour"
        )
    anchor = max(candidates, key=lambda nbr: (schedule.finish[nbr], -nbr))
    return schedule.tour_of[anchor], anchor


def insertion_case(
    node: int, aux_graph: NeighborRows, schedule: ChargingSchedule
) -> int:
    """Which case of Algorithm 1 applies to ``node``.

    Returns ``1`` when all scheduled neighbours lie on a single tour
    (case (i)), ``2`` when they span several tours (case (ii)), and
    ``0`` when none are scheduled.
    """
    tours: Set[int] = {
        schedule.tour_of[nbr]
        for nbr in scheduled_neighbors(node, aux_graph, schedule)
    }
    if not tours:
        return 0
    return 1 if len(tours) == 1 else 2


def extend_schedule(
    schedule: ChargingSchedule,
    remaining: Iterable[int],
    aux_graph: NeighborRows,
) -> Dict[int, str]:
    """Run the full extension loop of Algorithm 1 (lines 7–24).

    Candidates are drawn from ``remaining`` (``S_I \\ V'_H``); each
    iteration picks the one with the smallest ``(f_N, node)`` (Eq. 8,
    against the evolving schedule), skips it when its disk is already
    fully covered, and otherwise inserts it after its latest-finishing
    scheduled neighbour.

    ``best[node]`` holds each pending candidate's current ``f_N`` and a
    min-heap holds ``(f_N, node)`` entries that may lag behind it; an
    entry found below ``best[node]`` at the top is replaced by the
    current value (a lazy increase-key). An insertion at position ``i``
    of a tour changes only the finish times of ``tour[i:]``. When the
    stop it displaced finishes no earlier than before, every later
    finish is no earlier either (the recursion after it is unchanged
    and IEEE addition is monotone), so ``f_N`` only rises: each pending
    H-neighbour of ``tour[i:]`` takes the max of its ``best`` and that
    stop's finish. When that finish went down (a zero-``τ'`` stop on a
    near-collinear leg can lower it by one ulp), the pending
    H-neighbours of ``tour[i:]`` are rescanned instead. Either way the
    pick is the one a rescan of every pending candidate would make.

    Candidates with *no* scheduled neighbour are deferred; if at some
    point every remaining candidate is deferred and uncovered (possible
    only when ``H`` is disconnected from the scheduled core), the one
    with the smallest id is appended to the shortest tour so coverage
    is never lost — a fallback outside the paper's narrative but
    required for totality.

    Returns:
        A map from each processed candidate to its outcome:
        ``"skipped"``, ``"case1"``, ``"case2"`` or ``"appended"``.
    """
    pending: Set[int] = set(remaining)
    outcome: Dict[int, str] = {}
    best: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = []
    finish = schedule.finish

    def neighbors(stop: int) -> Iterable[int]:
        return aux_graph.neighbors(stop) if stop in aux_graph else ()

    def rescan(node: int) -> None:
        value = latest_neighbor_finish(node, aux_graph, schedule)
        if value is None:
            return
        old = best.get(node)
        if old is None or value < old:
            heapq.heappush(heap, (value, node))
        best[node] = value

    def raise_after(stops: List[int]) -> None:
        for stop in stops:
            value = finish[stop]
            for node in neighbors(stop):
                if node in pending:
                    old = best.get(node)
                    if old is None:
                        best[node] = value
                        heapq.heappush(heap, (value, node))
                    elif value > old:
                        best[node] = value

    def rescan_after(stops: List[int]) -> None:
        touched: Set[int] = set()
        for stop in stops:
            touched.update(neighbors(stop))
        for node in sorted(touched & pending):
            rescan(node)

    for node in sorted(pending):
        rescan(node)
    while pending:
        while heap:
            value, node = heap[0]
            if node not in pending:
                heapq.heappop(heap)
            elif value != best[node]:
                heapq.heapreplace(heap, (best[node], node))
            else:
                break
        if heap:
            node = heapq.heappop(heap)[1]
        else:
            # No candidate touches the scheduled core: fall back.
            node = min(pending)
            pending.discard(node)
            if schedule.fully_covered(node):
                outcome[node] = "skipped"
            else:
                shortest = min(
                    range(schedule.num_tours), key=schedule.tour_delay
                )
                schedule.append_stop(shortest, node)
                outcome[node] = "appended"
                raise_after([node])
            continue
        pending.discard(node)
        if schedule.fully_covered(node):
            outcome[node] = "skipped"
            continue
        case = insertion_case(node, aux_graph, schedule)
        tour_index, anchor = choose_insertion_anchor(node, aux_graph, schedule)
        tour = schedule.tours[tour_index]
        position = tour.index(anchor) + 1
        displaced = tour[position] if position < len(tour) else None
        before = finish[displaced] if displaced is not None else 0.0
        schedule.insert_stop_after(tour_index, anchor, node)
        outcome[node] = f"case{case}"
        if displaced is not None and finish[displaced] < before:
            rescan_after(tour[position:])
        else:
            raise_after(tour[position:])
    return outcome
