"""Unified planner pipeline.

One :class:`PlanningContext` per ``(WRSN, request set, ChargerSpec)``
memoizes everything the planners share — distances, the charging graph,
MIS results, coverage sets, the conflict graph, full-charge times and
min-max tour solutions — and the planner registry runs ``Appro`` and
every baseline through one uniform interface returning a
:class:`PlannedSchedule`.

Typical use::

    from repro.pipeline import PlanningContext, run_planner

    ctx = PlanningContext(network, requests)
    for name in planner_names(paper_only=True):
        result = run_planner(name, network, requests, k, context=ctx)
        print(name, result.longest_delay())
"""

from repro.core.context import PlanningContext, shared_distance_cache
from repro.pipeline.planner import (
    PlannedSchedule,
    Planner,
    PlannerInfo,
    get_planner,
    planner_names,
    register_planner,
    run_planner,
    unregister_planner,
)

# Importing the module registers the built-in planners.
from repro.pipeline import planners as _planners  # noqa: F401

__all__ = [
    "PlannedSchedule",
    "Planner",
    "PlannerInfo",
    "PlanningContext",
    "get_planner",
    "planner_names",
    "register_planner",
    "run_planner",
    "shared_distance_cache",
    "unregister_planner",
]
