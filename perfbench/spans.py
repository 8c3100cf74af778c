"""In-memory spans and the layer instrumentation of the traced run.

The traced run times calls into each layer's public functions from the
benchmark's side: :func:`instrument` swaps wrapped versions of those
functions into the modules and classes that call them, and the returned
callable puts the originals back.  No program file changes, and with
tracing off nothing is wrapped at all.

A span is ``(id, parent, name, start, end, thread)``; every span of one
run shares :attr:`Tracer.run_id`.  A span's self time is its duration
minus the durations of its children (children of one thread nest
strictly inside their parent, so they never overlap each other).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, float, float, int]


class Tracer:
    """Collects spans and counts in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        #: Every ``PlanningContext`` built while instrumented, for the
        #: memo and distance-cache counters at the end of the run.
        self.contexts: List[Any] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, parent, name, start, end, threading.get_ident())
                )

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        with self._lock:
            spans = list(self.spans)
        children: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                children[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end, _ in spans:
            totals[name] += (end - start) - children[span_id]
        return dict(totals)

    def write(self, path: str) -> None:
        """Dump every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, thread in self.spans:
                out.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )


def _wrapped(
    tracer: Tracer,
    fn: Callable,
    name: str,
    probe: Optional[Callable[[Tracer, tuple, Any, bool], None]] = None,
) -> Callable:
    """``fn`` inside a span named ``name``.

    ``probe(tracer, args, result, computed)`` records counts after the
    call; ``computed`` says whether a ``PlanningContext`` memo missed
    during it (always true for functions that are not context methods).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        owner = args[0] if args else None
        misses = getattr(owner, "memo_misses", None)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if probe is not None:
            computed = misses is None or owner.memo_misses > misses
            probe(tracer, args, result, computed)
        return result

    return wrapper


def _on_computed(key: str, measure: Callable[[Any], float], peak=False):
    def probe(tracer: Tracer, args: tuple, result: Any, computed: bool):
        if not computed:
            return
        if peak:
            tracer.maximum(key, measure(result))
        else:
            tracer.count(key, measure(result))

    return probe


def _count_outcomes(tracer: Tracer, args: tuple, result: Any, computed: bool):
    for outcome in result.values():
        tracer.count(f"core.insert_{outcome}")


def _count_solve(tracer: Tracer, args: tuple, result: Any, computed: bool):
    if computed:
        tracer.count("tours.solves")
        tracer.count("tours.nodes", len(args[1]))


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap each layer's entry points; returns the undo callable."""
    import repro.core.appro as appro
    import repro.sim.simulator as simulator
    import repro.tours.kminmax as kminmax
    from repro.graphs.auxiliary import auxiliary_max_degree
    from repro.pipeline.context import PlanningContext
    from repro.pipeline.planner import PlannedSchedule
    from repro.serve.daemon import PlanningDaemon

    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, name: str, probe=None) -> None:
        original = vars(owner)[attr]
        if isinstance(original, property):
            replacement: Any = property(
                _wrapped(tracer, original.fget, name, probe)
            )
        else:
            replacement = _wrapped(tracer, original, name, probe)
        patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def keep_context(tracer: Tracer, args: tuple, result: Any, computed: bool):
        tracer.contexts.append(args[0])

    patch(PlanningContext, "__init__", "pipeline.context_init", keep_context)
    patch(PlanningContext, "charge_times_for", "pipeline.charge_times")
    patch(
        PlanningContext,
        "charging_graph",
        "graphs.charging_graph",
        _on_computed("graphs.gc_edges", lambda g: g.number_of_edges()),
    )
    patch(
        PlanningContext,
        "sojourn_candidates",
        "graphs.mis",
        _on_computed("graphs.sojourn_candidates", len),
    )
    patch(PlanningContext, "coverage_for", "graphs.coverage")
    patch(
        PlanningContext,
        "auxiliary_graph",
        "graphs.auxiliary",
        _on_computed("graphs.delta_h", auxiliary_max_degree, peak=True),
    )
    patch(
        PlanningContext,
        "conflict_free_core",
        "graphs.mis",
        _on_computed("graphs.core_nodes", len),
    )
    patch(PlanningContext, "minmax_tours", "tours.minmax", _count_solve)
    patch(PlanningContext, "invalidate", "pipeline.invalidate")
    patch(kminmax, "build_tsp_order", "tours.tsp")
    patch(kminmax, "two_opt", "tours.improve")
    patch(kminmax, "or_opt", "tours.improve")
    patch(kminmax, "split_tour_min_max", "tours.split")
    patch(appro, "extend_schedule", "core.extend", _count_outcomes)
    patch(
        appro,
        "resolve_conflicts",
        "core.resolve",
        _on_computed("core.waits_inserted", lambda waits: waits),
    )
    patch(
        PlannedSchedule,
        "validate",
        "core.validate",
        _on_computed("core.violations", len),
    )
    patch(simulator, "build_routing_tree", "network.routing_tree")
    patch(PlanningDaemon, "submit", "serve.submit")

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo


#: Per-layer seconds: self time of these spans per planner call.
STAGE_SPANS = {
    "pipeline.context_init_s": "pipeline.context_init",
    "pipeline.charge_times_s": "pipeline.charge_times",
    "graphs.charging_graph_s": "graphs.charging_graph",
    "graphs.mis_s": "graphs.mis",
    "graphs.coverage_s": "graphs.coverage",
    "graphs.auxiliary_s": "graphs.auxiliary",
    "tours.minmax_s": "tours.minmax",
    "tours.tsp_s": "tours.tsp",
    "tours.improve_s": "tours.improve",
    "tours.split_s": "tours.split",
    "core.extend_s": "core.extend",
    "core.resolve_s": "core.resolve",
    "core.validate_s": "core.validate",
}

#: Per-layer counts, as means per planner call.
PER_PLAN_COUNTS = (
    "graphs.gc_edges",
    "graphs.sojourn_candidates",
    "graphs.core_nodes",
    "core.waits_inserted",
    "core.insert_case1",
    "core.insert_case2",
    "core.insert_skipped",
)


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def stage_metrics(tracer: Tracer, plans: int, wall_s: float) -> Dict[str, float]:
    """The layer figures every workload produces from its spans.

    Args:
        tracer: the traced run's spans and counts.
        plans: planner calls made while instrumented.
        wall_s: wall seconds of the instrumented phase.
    """
    selfs = tracer.self_times()
    counts = tracer.counts
    per_plan = 1.0 / max(plans, 1)
    out = {
        metric: selfs.get(name, 0.0) * per_plan
        for metric, name in STAGE_SPANS.items()
    }
    out.update({name: counts[name] * per_plan for name in PER_PLAN_COUNTS})
    out["graphs.delta_h"] = tracer.maxima["graphs.delta_h"]
    out["tours.nodes"] = counts["tours.nodes"] / max(counts["tours.solves"], 1)
    out["core.violations"] = counts["core.violations"]
    memo = [0, 0]
    distance = [0, 0]
    caches = {}
    invalidations = 0
    for context in tracer.contexts:
        memo[0] += context.memo_hits
        memo[1] += context.memo_misses
        invalidations += context.invalidations
        caches[id(context.distance)] = context.distance
    for cache in caches.values():
        distance[0] += cache.hits
        distance[1] += cache.misses
    out["pipeline.memo_hit_ratio"] = _ratio(*memo)
    out["geometry.distance_hit_ratio"] = _ratio(*distance)
    out["pipeline.invalidations"] = float(invalidations)
    out["pipeline.invalidate_share"] = (
        selfs.get("pipeline.invalidate", 0.0) / wall_s if wall_s else 0.0
    )
    out["bench.plans"] = float(plans)
    return out
