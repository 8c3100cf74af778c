"""Run a job batch through one :class:`PlanningDaemon` and wait.

Shared by the serving tests: every ticket is resolved before the
daemon drains, and the status document is read while it still runs.
"""

from typing import List, Optional, Sequence, Tuple

from repro.serve import DaemonConfig, JobResult, JobTicket, PlanJob
from repro.serve import PlanningDaemon


def daemon_batch(
    jobs: Sequence[PlanJob], workers: int = 1, **config
) -> Tuple[List[JobTicket], dict]:
    """``(tickets, status)`` for ``jobs`` run on a queue that holds them
    all; pools fork so runtime-registered planners reach the workers."""
    config.setdefault("max_queue", max(1, len(jobs)))
    if workers > 1:
        config.setdefault("mp_context", "fork")
    with PlanningDaemon(DaemonConfig(workers=workers, **config)) as daemon:
        tickets = daemon.run_batch(jobs, timeout_s=120.0)
        status = daemon.status()
    return tickets, status


def daemon_results(
    jobs: Sequence[PlanJob], workers: int = 1, **config
) -> List[Optional[JobResult]]:
    """One :class:`JobResult` per job (``None`` for a rejection)."""
    tickets, _ = daemon_batch(jobs, workers, **config)
    return [ticket.job_result for ticket in tickets]
