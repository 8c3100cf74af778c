"""Planning as a service: the planning daemon and its wire format.

Many planning problems, one call::

    from repro.serve import DaemonConfig, PlanJob, PlanningDaemon

    jobs = [
        PlanJob(network, requests, num_chargers=k, planner=name)
        for k in (1, 2, 3)
        for name in ("Appro", "K-minMax")
    ]
    config = DaemonConfig(workers=4, timeout_s=60.0, max_queue=len(jobs))
    with PlanningDaemon(config) as daemon:
        tickets = daemon.run_batch(jobs)  # resolved, in submission order
        records = [ticket.wait() for ticket in tickets]
        print(daemon.status()["counters"])

Jobs about the same network geometry form a group and reuse one warm
:class:`~repro.core.context.PlanningContext` (and distance cache) inside
whichever worker runs them; identical jobs in flight are planned once;
failures and rejections come back as structured ``repro-result/1``
records instead of exceptions; and for any worker count an accepted
job's :meth:`~repro.serve.jobs.JobResult.parity_key` is byte-identical
to a serial :func:`~repro.pipeline.run_planner` call. On disk,
batches are ``repro-job/1`` JSONL files
(:func:`~repro.serve.jobs.load_jobs`) — ``repro serve`` runs one
through the daemon, ``repro daemon`` keeps one listening.
"""

from repro.serve.admission import (
    AdmissionPolicy,
    REJECT_DEADLINE,
    REJECT_PAYLOAD,
    REJECT_QUEUE_FULL,
    REJECT_REASONS,
    REJECT_SHUTDOWN,
    Rejection,
    STATUS_REJECTED,
    ServiceTimeEstimator,
)
from repro.serve.daemon import (
    DAEMON_STATUS_FORMAT,
    REQUIRED_VALUE_KEYS,
    DaemonConfig,
    JobTicket,
    PlanningDaemon,
    geometry_digest,
    network_digest,
    result_from_outcome,
)
from repro.serve.health import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.serve.jobs import (
    JobLineError,
    JobResult,
    JobStreamReader,
    PlanJob,
    job_to_dict,
    jobs_from_lines,
    jobs_from_records,
    jobs_to_jsonl,
    load_jobs,
    load_jobs_lenient,
    save_jobs,
)
from repro.serve.pool import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_POOL_BROKEN,
    STATUS_TIMEOUT,
    PoolConfig,
    SupervisedPool,
    TaskOutcome,
    TaskTimeout,
    call_with_timeout,
    run_tasks,
)
from repro.serve.sanitize import (
    Divergence,
    SanitizeReport,
    build_corpus,
    run_matrix,
    sanitize_corpus,
)
from repro.serve.transport import (
    DaemonSession,
    DaemonSocketServer,
    make_socket_server,
    request,
    request_status,
    serve_stream,
)
from repro.serve.workers import execute_plan_job, reset_worker_cache

__all__ = [
    "AdmissionPolicy",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "DAEMON_STATUS_FORMAT",
    "DaemonConfig",
    "DaemonSession",
    "DaemonSocketServer",
    "Divergence",
    "JobLineError",
    "JobResult",
    "JobStreamReader",
    "JobTicket",
    "PlanJob",
    "PlanningDaemon",
    "PoolConfig",
    "REJECT_DEADLINE",
    "REJECT_PAYLOAD",
    "REJECT_QUEUE_FULL",
    "REJECT_REASONS",
    "REJECT_SHUTDOWN",
    "REQUIRED_VALUE_KEYS",
    "Rejection",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_POOL_BROKEN",
    "STATUS_REJECTED",
    "STATUS_TIMEOUT",
    "SanitizeReport",
    "ServiceTimeEstimator",
    "SupervisedPool",
    "TaskOutcome",
    "TaskTimeout",
    "build_corpus",
    "call_with_timeout",
    "execute_plan_job",
    "job_to_dict",
    "jobs_from_lines",
    "jobs_from_records",
    "jobs_to_jsonl",
    "load_jobs",
    "load_jobs_lenient",
    "make_socket_server",
    "geometry_digest",
    "network_digest",
    "request",
    "request_status",
    "reset_worker_cache",
    "result_from_outcome",
    "run_matrix",
    "run_tasks",
    "sanitize_corpus",
    "save_jobs",
    "serve_stream",
]
