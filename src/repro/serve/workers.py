"""Worker-side job execution with per-process context-group caching.

:func:`execute_plan_job` is the one function the planning daemon maps
over its :class:`~repro.serve.pool.SupervisedPool` (it is module-level
and takes a single payload dict, as the pool requires). Each worker
process keeps a small LRU of **group states** — the network plus every
:class:`~repro.core.context.PlanningContext` built on it so far —
so consecutive jobs from the same group land on a warm context instead
of re-paying graph/MIS/coverage construction, and jobs with different
request sets on the same network still share one distance cache
(:func:`~repro.core.context.shared_distance_cache` keys on the
cached network *object*, which the group state pins).

The cache key includes a per-daemon ``token``, so two daemons in one
process never cross-pollinate. Two LRU bounds keep a long-lived worker
from accumulating every network it ever saw
(:data:`MAX_CACHED_GROUPS`) and every request set asked of one network
(:data:`MAX_CONTEXTS_PER_GROUP`) — the latter also caps how many warm
contexts each drifted request has to invalidate.

Serial execution uses exactly this function in-process, so the only
difference between ``workers=1`` and ``workers=N`` is where the cache
lives — never what gets computed. Context memoization is
byte-transparent by construction (see
:mod:`repro.core.context`), which is what the parity suite pins.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.io import schedule_to_dict
from repro.network.topology import WRSN
from repro.units import approx_eq
from repro.pipeline import PlanningContext, run_planner

#: Group states retained per worker process before LRU eviction.
MAX_CACHED_GROUPS = 8

#: Warm contexts (one per request set) retained per group before LRU
#: eviction.
MAX_CONTEXTS_PER_GROUP = 8


@dataclass
class GroupState:
    """Everything one job group shares inside a worker process."""

    network: WRSN
    #: One warm context per recently seen request set, least recent
    #: first.
    contexts: "OrderedDict[Tuple[int, ...], PlanningContext]" = field(
        default_factory=OrderedDict
    )


_GROUP_CACHE: "OrderedDict[Tuple[str, str], GroupState]" = OrderedDict()


def reset_worker_cache() -> None:
    """Drop all cached group state (test isolation hook)."""
    _GROUP_CACHE.clear()


def drop_groups(token: str) -> None:
    """Drop this process's cached groups of one daemon ``token``.

    Called by :meth:`~repro.serve.daemon.PlanningDaemon.shutdown`: with
    ``workers=1`` the cache lives in the daemon's own process, and a
    stopped daemon's pinned networks and contexts must not outlive it.
    """
    # list() snapshots the keys in one step, and pop() tolerates a key
    # that another daemon's runner thread evicts meanwhile.
    for key in list(_GROUP_CACHE):
        if key[0] == token:
            _GROUP_CACHE.pop(key, None)


def _group_state(
    token: str, group_key: str, network: WRSN
) -> Tuple[GroupState, bool]:
    """The cached state for a group, creating it from ``network``.

    Returns ``(state, existed)``. A new group pins a private copy of
    ``network``: residual syncs mutate the pinned network, and a
    caller's object (passed by reference when the pool runs in-process)
    must never see them. Later payloads are discarded in favour of the
    pinned copy — that object identity is what makes the weak-keyed
    distance cache shared across the group's jobs.
    """
    key = (token, group_key)
    state = _GROUP_CACHE.get(key)
    if state is not None:
        _GROUP_CACHE.move_to_end(key)
        return state, True
    state = GroupState(network=network.copy())
    _GROUP_CACHE[key] = state
    while len(_GROUP_CACHE) > MAX_CACHED_GROUPS:
        _GROUP_CACHE.popitem(last=False)
    return state, False


def _sync_residuals(state: GroupState, incoming: WRSN) -> None:
    """Fold a drifted request's residuals into its warm group.

    The daemon keys groups on :func:`~repro.serve.daemon.geometry_digest`,
    so a request about a structurally identical network whose batteries
    have drained since the group was pinned still lands here. Instead
    of rebuilding the group's contexts (the pre-PR-10 behaviour), copy
    the changed residual levels onto the pinned network and
    :meth:`~repro.core.context.PlanningContext.invalidate` exactly
    those sensors on every warm context — geometry memos survive, and
    the replan is byte-identical to a cold rebuild (pinned by
    ``tests/test_daemon.py``).
    """
    pinned = state.network
    drift = {}
    for sid in sorted(pinned.all_sensor_ids()):
        level = incoming.sensor(sid).residual_j
        # Exact comparison on purpose (rel_eps=0): any bit of drift
        # must invalidate, or the warm replan would diverge from a
        # cold rebuild at byte level.
        if not approx_eq(level, pinned.sensor(sid).residual_j,
                         rel_eps=0.0, abs_eps=0.0):
            drift[sid] = level
    if not drift:
        return
    pinned.set_residuals(drift)
    changed = sorted(drift)
    for context in state.contexts.values():
        context.invalidate(changed)


def execute_plan_job(payload: Dict) -> Dict:
    """Plan one job on its group's warm context.

    Payload keys: ``token``, ``group_key``, ``network`` (a WRSN),
    ``requests`` (id tuple), ``num_chargers``, ``planner``.

    Returns a dict with ``schedule`` (the ``repro-schedule/2``
    document), ``longest_delay_s``, ``context_reused`` (an already-warm
    context served this exact request set), ``plan_s`` and ``cache``
    (context memo/distance counters after the run).
    """
    token = str(payload["token"])
    group_key = str(payload["group_key"])
    network: WRSN = payload["network"]
    requests: Tuple[int, ...] = tuple(payload["requests"])
    num_chargers = int(payload["num_chargers"])
    planner = str(payload["planner"])

    start = time.perf_counter()
    state, existed = _group_state(token, group_key, network)
    if existed:
        _sync_residuals(state, network)
    context = state.contexts.get(requests)
    context_reused = context is not None
    if context is not None:
        state.contexts.move_to_end(requests)
    else:
        context = PlanningContext(state.network, requests)
        state.contexts[requests] = context
        while len(state.contexts) > MAX_CONTEXTS_PER_GROUP:
            state.contexts.popitem(last=False)

    planned = run_planner(
        planner, state.network, requests, num_chargers, context=context
    )
    plan_s = time.perf_counter() - start
    return {
        "schedule": schedule_to_dict(planned, algorithm=planner),
        "longest_delay_s": planned.longest_delay(),
        "context_reused": context_reused,
        "plan_s": plan_s,
        "cache": context.stats(),
    }


__all__ = [
    "GroupState",
    "drop_groups",
    "MAX_CACHED_GROUPS",
    "MAX_CONTEXTS_PER_GROUP",
    "execute_plan_job",
    "reset_worker_cache",
]
