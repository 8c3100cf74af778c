"""Admission control for the planning daemon: reject early, reject
structurally.

A long-lived daemon under overload has exactly two honest options per
arriving job: queue it, or tell the client *now* — with a structured,
machine-readable reason — that it will never run. Silent queue growth
(latency collapse) and silent drops (lost work) are both lies. The
:class:`AdmissionPolicy` makes the decision at submission time:

* ``queue-full`` — the bounded queue is at capacity. Backpressure is
  explicit: the client sees the rejection immediately instead of a
  timeout minutes later.
* ``deadline-unmeetable`` — the job carries a latency budget
  (``deadline_s``) that is provably unmeetable even under an
  *optimistic* service-time model: the fastest service time ever
  observed, times the jobs queued ahead, divided by the worker count,
  **plus the arriving job's own fastest-possible service time** (a
  job admitted to an empty queue still needs at least one service
  time to finish — comparing the queueing wait alone against the
  deadline accepted jobs that were already certain to miss).
  Following the admission-control argument of arXiv 1810.12385, the
  bound is deliberately a lower bound — the daemon only rejects jobs
  it is *certain* to fail, and never rejects on a pessimistic guess
  (before any observation the estimate is zero and everything is
  admitted).
* ``payload-too-large`` — the request set exceeds the configured
  ``max_requests`` cap, or the job asks for more chargers than its
  network has sensors. Every planner's cost grows linearly with ``K``,
  so a decodable ``num_chargers`` of 10^9 would otherwise occupy a
  worker for good; past the sensor count extra chargers can only idle,
  so :func:`fleet_rejection` refuses only what is certain to be waste.
* ``shutting-down`` — the daemon is draining; no new work.

Rejections surface as ``repro-result/1`` records with
``status="rejected"`` and a ``reason`` field carrying one of the
:data:`REJECT_REASONS` tags, so clients can branch on the tag without
parsing prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.io import RESULT_FORMAT
from repro.serve.jobs import PlanJob
from repro.sim.deadline import ServiceTimeEstimator

#: Rejection reason tags, stable API for clients.
REJECT_QUEUE_FULL = "queue-full"
REJECT_DEADLINE = "deadline-unmeetable"
REJECT_PAYLOAD = "payload-too-large"
REJECT_SHUTDOWN = "shutting-down"

STATUS_REJECTED = "rejected"

REJECT_REASONS = (
    REJECT_QUEUE_FULL,
    REJECT_DEADLINE,
    REJECT_PAYLOAD,
    REJECT_SHUTDOWN,
)


@dataclass(frozen=True)
class Rejection:
    """Why a job was refused at the door.

    Attributes:
        reason: one of :data:`REJECT_REASONS`.
        detail: human-readable specifics (caps, estimates).
    """

    reason: str
    detail: str

    def to_result_dict(
        self, job_id: str, index: int, job: Optional[PlanJob] = None
    ) -> Dict:
        """A terminal ``repro-result/1`` record for the rejected job.

        Carries the same keys as a planned result (so stream
        consumers parse one schema) plus the machine-readable
        ``reason`` tag.
        """
        return {
            "format": RESULT_FORMAT,
            "id": job_id,
            "index": index,
            "status": STATUS_REJECTED,
            "reason": self.reason,
            "planner": job.planner if job is not None else None,
            "num_chargers": job.num_chargers if job is not None else None,
            "group": "",
            "attempts": 0,
            "longest_delay_s": None,
            "schedule": None,
            "error": f"{self.reason}: {self.detail}",
            "context_reused": False,
            "plan_s": 0.0,
            "total_s": 0.0,
            "cache": {},
        }


def fleet_rejection(job: PlanJob) -> Optional[Rejection]:
    """``payload-too-large`` when ``job`` asks for more chargers than
    its network has sensors; ``None`` otherwise.

    Every planner's cost grows with K, so such a job is refused at
    the daemon's front door (:class:`AdmissionPolicy`) instead of
    reaching a worker.
    """
    sensors = len(job.network)
    if job.num_chargers <= sensors:
        return None
    return Rejection(
        REJECT_PAYLOAD,
        f"num_chargers {job.num_chargers} exceeds the network's "
        f"{sensors} sensors",
    )


class AdmissionPolicy:
    """Admit-or-reject decisions for the daemon's front door.

    Args:
        max_queue: bounded queue capacity (jobs waiting, not counting
            in-flight ones).
        max_requests: largest admissible request set; ``None`` = no
            cap.
        workers: parallelism assumed by the wait-time bound.
        estimator: shared service-time tracker; a fresh one is built
            when not supplied.
    """

    def __init__(
        self,
        max_queue: int = 64,
        max_requests: Optional[int] = None,
        workers: int = 1,
        estimator: Optional[ServiceTimeEstimator] = None,
    ):
        if max_queue <= 0:
            raise ValueError(
                f"max_queue must be positive, got {max_queue}"
            )
        if max_requests is not None and max_requests <= 0:
            raise ValueError(
                f"max_requests must be positive, got {max_requests}"
            )
        self.max_queue = max_queue
        self.max_requests = max_requests
        self.workers = max(workers, 1)
        self.estimator = (
            estimator if estimator is not None else ServiceTimeEstimator()
        )

    def admit(
        self,
        job: PlanJob,
        queue_depth: int,
        deadline_s: Optional[float] = None,
        accepting: bool = True,
    ) -> Optional[Rejection]:
        """``None`` to admit, or the :class:`Rejection` to send back.

        Checks run cheapest-first; the first failure wins.
        """
        if not accepting:
            return Rejection(
                REJECT_SHUTDOWN, "daemon is draining; resubmit elsewhere"
            )
        if (
            self.max_requests is not None
            and len(job.request_ids) > self.max_requests
        ):
            return Rejection(
                REJECT_PAYLOAD,
                f"request set has {len(job.request_ids)} sensors, cap "
                f"is {self.max_requests}",
            )
        rejection = fleet_rejection(job)
        if rejection is not None:
            return rejection
        if queue_depth >= self.max_queue:
            return Rejection(
                REJECT_QUEUE_FULL,
                f"admission queue is at capacity "
                f"({queue_depth}/{self.max_queue})",
            )
        if deadline_s is not None:
            # Queueing wait *plus* the job's own optimistic service
            # time: even first in line, the job cannot finish before
            # one service time has elapsed.
            bound_s = self.estimator.optimistic_completion_s(
                queue_depth, self.workers
            )
            if bound_s > deadline_s:
                return Rejection(
                    REJECT_DEADLINE,
                    f"optimistic completion bound {bound_s:.3f}s "
                    f"already exceeds the {deadline_s:g}s deadline "
                    f"({queue_depth} queued ahead, "
                    f"min service {self.estimator.min_service_s:.3f}s, "
                    f"{self.workers} workers)",
                )
        return None


__all__ = [
    "AdmissionPolicy",
    "REJECT_DEADLINE",
    "REJECT_PAYLOAD",
    "REJECT_QUEUE_FULL",
    "REJECT_REASONS",
    "REJECT_SHUTDOWN",
    "Rejection",
    "STATUS_REJECTED",
    "ServiceTimeEstimator",
    "fleet_rejection",
]
