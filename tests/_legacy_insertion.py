"""The retired full-rescan extension loop, kept as a test oracle.

``repro.core.insertion.extend_schedule`` used to recompute Eq. (8)'s
``f_N`` for every pending candidate on every iteration. It now keeps
each candidate's current ``f_N`` in a map and a lazily raised min-heap
over it; an insertion only raises the values of the pending
H-neighbours of the stops it delays, and rescans them only when it
moved a later stop earlier. ``tests/test_core_insertion_oracle.py``
pins it against the loop below — identical outcome maps in identical
processing order, and byte-identical schedules.

It exists *only* as a reference; production code must never import
this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

import networkx as nx

from repro.core.insertion import (
    choose_insertion_anchor,
    insertion_case,
    latest_neighbor_finish,
)
from repro.core.schedule import ChargingSchedule


def rescan_extend_schedule(
    schedule: ChargingSchedule,
    remaining: Iterable[int],
    aux_graph: nx.Graph,
) -> Dict[int, str]:
    """The retired ``extend_schedule``: a full ``f_N`` rescan per pick."""
    pending: Set[int] = set(remaining)
    outcome: Dict[int, str] = {}
    while pending:
        keyed = [
            (node, latest_neighbor_finish(node, aux_graph, schedule))
            for node in sorted(pending)
        ]
        with_neighbors = [(n, f) for n, f in keyed if f is not None]
        if with_neighbors:
            node, _ = min(with_neighbors, key=lambda pair: (pair[1], pair[0]))
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
            continue
        pending.discard(node)
        if schedule.fully_covered(node):
            outcome[node] = "skipped"
            continue
        case = insertion_case(node, aux_graph, schedule)
        tour_index, anchor = choose_insertion_anchor(node, aux_graph, schedule)
        schedule.insert_stop_after(tour_index, anchor, node)
        outcome[node] = f"case{case}"
    return outcome
