"""The :class:`PlanningService`: batches of plan jobs, one result each.

The service sits between the planner pipeline and its batch consumers
(bench campaigns, the fault harness, the ``repro serve`` CLI). It takes
a list of :class:`~repro.serve.jobs.PlanJob` and:

1. **groups** jobs by network identity — jobs sharing a
   :class:`~repro.network.topology.WRSN` object get one group key, so
   whichever worker executes them reuses a warm
   ``PlanningContext``/distance cache (:mod:`repro.serve.workers`);
2. **fans out** over :func:`repro.serve.pool.run_tasks` — in-process
   by default, a worker pool when ``workers > 1`` — with per-job
   timeout and bounded retry;
3. **returns** one structured :class:`~repro.serve.jobs.JobResult` per
   job, in job order, failed or not: a malformed worker payload, a
   raising planner or a timeout becomes an ``"error"``/``"timeout"``
   result and never aborts or contaminates sibling jobs. An unknown
   planner, or more chargers than the network has sensors
   (``payload-too-large``, :func:`~repro.serve.admission.fleet_rejection`),
   fails in the parent without a pool submission.

Determinism contract: planners are pure functions of
``(network, requests, K)`` and context memoization is byte-transparent,
so for any worker count the ordered
:meth:`~repro.serve.jobs.JobResult.parity_key` sequence of a batch is
identical to the sequential run's — the property pinned by
``tests/test_serve_parity.py``.
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, Dict, List, Optional, Sequence

from repro.pipeline import (
    PlanningContext,
    get_planner,
    snapshot_context,
)
from repro.serve.admission import fleet_rejection
from repro.serve.jobs import JobResult, PlanJob
from repro.serve.pool import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_POOL_BROKEN,
    STATUS_TIMEOUT,
    PoolConfig,
    TaskOutcome,
    run_tasks,
)
from repro.serve.workers import execute_plan_job

#: Keys a well-formed worker payload must carry; anything else is
#: reported as a malformed-payload error on that job alone.
REQUIRED_VALUE_KEYS = frozenset(
    {"schedule", "longest_delay_s", "context_reused", "plan_s", "cache"}
)

#: Distinguishes concurrent service runs inside one worker process, so
#: group caches never leak between runs (residuals may have changed).
_RUN_COUNTER = itertools.count()


def result_from_outcome(
    job: PlanJob, index: int, group_key: str, outcome: TaskOutcome
) -> JobResult:
    """Turn one pool :class:`TaskOutcome` into a :class:`JobResult`.

    Shared by the batch service and the planning daemon so both
    front-ends validate worker payloads and populate result fields the
    same way: a non-``ok`` outcome keeps its status and error text; an
    ``ok`` outcome whose value is not a well-formed worker payload
    (:data:`REQUIRED_VALUE_KEYS`) is demoted to an error.
    """
    result = JobResult(
        job_id=job.job_id or f"job-{index}",
        index=index,
        status=outcome.status,
        planner=job.planner,
        num_chargers=job.num_chargers,
        group_key=group_key,
        attempts=outcome.attempts,
        error=outcome.error,
        total_s=outcome.elapsed_s,
    )
    if outcome.status != STATUS_OK:
        return result
    value = outcome.value
    if not isinstance(value, dict) or not REQUIRED_VALUE_KEYS <= set(
        value
    ):
        result.status = STATUS_ERROR
        result.error = (
            "malformed worker payload: expected a dict with keys "
            f"{sorted(REQUIRED_VALUE_KEYS)}, got "
            f"{type(value).__name__}"
        )
        return result
    result.longest_delay_s = value["longest_delay_s"]
    result.schedule = value["schedule"]
    result.context_reused = bool(value["context_reused"])
    result.plan_s = float(value["plan_s"])
    result.cache = dict(value["cache"])
    return result


def _parent_error(job: PlanJob) -> Optional[str]:
    """Why ``job`` cannot run at all, or ``None`` when it may."""
    try:
        get_planner(job.planner)
    except KeyError as exc:
        return str(exc)
    rejection = fleet_rejection(job)
    if rejection is None:
        return None
    return f"{rejection.reason}: {rejection.detail}"


class PlanningService:
    """Run batches of planning jobs over a cache-sharing worker pool.

    Args:
        workers: worker process count; ``1`` (default) runs in-process.
        timeout_s: per-job execution bound, seconds.
        max_retries: extra attempts for failed jobs.
        backoff_s: base of the exponential retry backoff.
        mp_context: multiprocessing start method; note that planners
            registered at runtime (tests, plug-ins) reach pool workers
            only under ``"fork"``.
        share_contexts: reuse one planning context per job group (on by
            default); off builds a cold, unshared context per job —
            the honest baseline for the warm-vs-cold benchmark.
    """

    def __init__(
        self,
        workers: int = 1,
        timeout_s: Optional[float] = None,
        max_retries: int = 0,
        backoff_s: float = 0.0,
        mp_context: Optional[str] = None,
        share_contexts: bool = True,
    ):
        self.config = PoolConfig(
            workers=workers,
            timeout_s=timeout_s,
            max_retries=max_retries,
            backoff_s=backoff_s,
            mp_context=mp_context,
        )
        self.share_contexts = share_contexts
        self._last_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def run(
        self,
        jobs: Sequence[PlanJob],
        progress: Optional[Callable[[JobResult], None]] = None,
        warm_contexts: Optional[Sequence[PlanningContext]] = None,
    ) -> List[JobResult]:
        """Execute ``jobs``; one result per job, in job order.

        Args:
            jobs: the batch.
            progress: optional callback fired once per job with its
                final result, in completion order.
            warm_contexts: already-warm contexts to seed cold groups
                with; each is snapshotted
                (:func:`~repro.pipeline.snapshot_context`) and shipped
                to the worker handling the matching
                ``(network, request set)`` jobs.

        Returns:
            Results positionally aligned with ``jobs``; failures are
            structured results, never exceptions.
        """
        jobs = list(jobs)
        token = f"{os.getpid()}-{next(_RUN_COUNTER)}"
        group_keys = self._assign_groups(jobs)
        warm = self._index_warm_contexts(warm_contexts)

        results: List[Optional[JobResult]] = [None] * len(jobs)
        payloads: List[Dict] = []
        payload_jobs: List[int] = []
        for i, job in enumerate(jobs):
            error = _parent_error(job)
            if error is not None:
                # Fail in the parent, without burning pool submissions
                # or retries on a job that cannot succeed.
                results[i] = JobResult(
                    job_id=job.job_id or f"job-{i}",
                    index=i,
                    status=STATUS_ERROR,
                    planner=job.planner,
                    num_chargers=job.num_chargers,
                    group_key=group_keys[i],
                    attempts=0,
                    error=error,
                )
                if progress is not None:
                    progress(results[i])
                continue
            payload = {
                "token": token,
                "group_key": group_keys[i],
                "network": job.network,
                "requests": job.request_ids,
                "num_chargers": job.num_chargers,
                "planner": job.planner,
                "share_contexts": self.share_contexts,
            }
            snapshot = warm.get((id(job.network), job.request_ids))
            if snapshot is not None:
                payload["warm_start"] = snapshot
            payloads.append(payload)
            payload_jobs.append(i)

        def _pool_progress(outcome: TaskOutcome) -> None:
            i = payload_jobs[outcome.index]
            results[i] = result_from_outcome(
                jobs[i], i, group_keys[i], outcome
            )
            if progress is not None:
                progress(results[i])

        run_tasks(
            execute_plan_job,
            payloads,
            config=self.config,
            progress=_pool_progress,
        )
        final = [
            result
            for result in results
            if result is not None  # all slots filled by now
        ]
        self._last_stats = self._aggregate(final)
        return final

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Aggregate counters of the most recent :meth:`run`."""
        return dict(self._last_stats)

    # ------------------------------------------------------------------

    @staticmethod
    def _assign_groups(jobs: Sequence[PlanJob]) -> List[str]:
        """Deterministic group key per job: first-seen network order."""
        keys: List[str] = []
        seen: Dict[int, str] = {}
        for job in jobs:
            ident = id(job.network)
            if ident not in seen:
                seen[ident] = f"g{len(seen)}"
            keys.append(seen[ident])
        return keys

    @staticmethod
    def _index_warm_contexts(
        warm_contexts: Optional[Sequence[PlanningContext]],
    ) -> Dict:
        if not warm_contexts:
            return {}
        return {
            (id(ctx.network), ctx.requests): snapshot_context(ctx)
            for ctx in warm_contexts
        }

    @staticmethod
    def _aggregate(results: Sequence[JobResult]) -> Dict[str, int]:
        stats = {
            "jobs": len(results),
            "ok": 0,
            "errors": 0,
            "timeouts": 0,
            "pool_broken": 0,
            "groups": len({r.group_key for r in results}),
            "context_reuses": 0,
            "attempts": 0,
            "memo_hits": 0,
            "memo_misses": 0,
        }
        for r in results:
            if r.ok:
                stats["ok"] += 1
            elif r.status == STATUS_TIMEOUT:
                stats["timeouts"] += 1
            elif r.status == STATUS_POOL_BROKEN:
                # Its worker died on the last attempt; counted as an
                # error too so "ok + errors + timeouts" keeps summing
                # to "jobs" for existing consumers.
                stats["pool_broken"] += 1
                stats["errors"] += 1
            else:
                stats["errors"] += 1
            stats["context_reuses"] += int(r.context_reused)
            stats["attempts"] += r.attempts
            stats["memo_hits"] += int(r.cache.get("memo_hits", 0))
            stats["memo_misses"] += int(r.cache.get("memo_misses", 0))
        return stats


__all__ = ["PlanningService", "REQUIRED_VALUE_KEYS", "result_from_outcome"]
