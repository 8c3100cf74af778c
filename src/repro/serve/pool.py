"""The one worker-pool engine: ordered fan-out and a supervised pool.

:class:`SupervisedPool` is the only code in the package that builds a
``concurrent.futures.ProcessPoolExecutor``, runs the per-task watchdog,
notices a dead worker and fills in a :class:`TaskOutcome`. With
``workers == 1`` it runs each task inline — no executor, no pickling.
Its two callers:

* :func:`run_tasks` — the batch entry point under ``repro eval`` and
  the figure sweeps — maps a picklable top-level function over a
  payload list in one :meth:`SupervisedPool.run_wave` through a pool it
  opens and closes per call, and returns one :class:`TaskOutcome` per
  payload **in payload order** regardless of completion order;
* the planning daemon, which keeps one pool (and therefore its
  workers' warm context caches) alive across requests and calls
  :meth:`SupervisedPool.run_one` from its runner threads.

Failure semantics are the same at every worker count, and every task
runs exactly once:

* an exception raised by the function becomes an ``"error"`` outcome
  (siblings keep running — one poisoned payload never aborts a batch);
* a task exceeding ``timeout_s`` becomes a ``"timeout"`` outcome. The
  bound is enforced *inside* the executing process by running the call
  on a watchdog thread, so inline and pooled execution time out
  identically and a stuck task cannot wedge the pool's result loop;
* a worker process dying (``BrokenProcessPool``) gives the tasks in
  flight a ``"pool-broken"`` outcome; the executor is rebuilt once per
  breakage (a generation counter stops concurrent callers that saw the
  same corpse from rebuilding it twice).

There are no retries: the functions are pure in their payload, so a
second attempt at an error or a timeout reruns the same work. A dead
worker leaves its tasks ``"pool-broken"``; the daemon recovers with
the pool rebuild and its circuit breaker.

Determinism: outcomes are positionally stable and the function is
expected to be a pure function of its payload, so any two runs — and
any two worker counts — produce the same outcome values.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Outcome status values, in "worst wins" order for aggregation.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_POOL_BROKEN = "pool-broken"


@dataclass(frozen=True)
class PoolConfig:
    """Execution knobs shared by every :func:`run_tasks` caller.

    Attributes:
        workers: process count; ``1`` (the default) runs every task
            in-process with no executor at all.
        timeout_s: per-task execution bound, seconds; ``None`` = none.
        mp_context: multiprocessing start method (``"fork"``,
            ``"spawn"``, ...); ``None`` uses the platform default.
    """

    workers: int = 1
    timeout_s: Optional[float] = None
    mp_context: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout must be positive, got {self.timeout_s}"
            )


@dataclass
class TaskOutcome:
    """What happened to one payload."""

    index: int
    status: str
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class TaskTimeout(Exception):
    """Raised inside the executing process when a task runs too long."""


def call_with_timeout(
    fn: Callable[[Any], Any], payload: Any, timeout_s: Optional[float]
) -> Any:
    """Run ``fn(payload)``, bounding its execution time.

    The call runs on a daemon watchdog thread; on expiry the result is
    abandoned (the thread finishes in the background) and
    :class:`TaskTimeout` is raised immediately, so the caller — inline
    or pool worker — reports the timeout promptly instead of blocking
    on the slow task.
    """
    if timeout_s is None:
        return fn(payload)
    box: Dict[str, Any] = {}

    def _target() -> None:
        try:
            box["value"] = fn(payload)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            box["error"] = exc

    thread = threading.Thread(target=_target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise TaskTimeout(
            f"task exceeded its {timeout_s:g}s execution bound"
        )
    if "error" in box:
        raise box["error"]
    return box["value"]


def _pool_entry(
    fn: Callable[[Any], Any], payload: Any, timeout_s: Optional[float]
) -> Tuple[str, Any]:
    """Worker-side wrapper: normal errors come back as values.

    Only infrastructure failures (a dead worker, an unpicklable
    return) surface through the future's exception channel.
    """
    try:
        return (STATUS_OK, call_with_timeout(fn, payload, timeout_s))
    except TaskTimeout as exc:
        return (STATUS_TIMEOUT, str(exc))
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        return (STATUS_ERROR, f"{type(exc).__name__}: {exc}")


def _settle(
    outcome: TaskOutcome, status: str, value: Any, elapsed_s: float
) -> TaskOutcome:
    """Record one finished run in ``outcome``."""
    outcome.attempts = 1
    outcome.elapsed_s = elapsed_s
    outcome.status = status
    if status == STATUS_OK:
        outcome.value, outcome.error = value, None
    else:
        outcome.value, outcome.error = None, str(value)
    return outcome


class SupervisedPool:
    """A persistent, self-healing worker pool for one task function.

    Args:
        fn: a picklable **module-level** callable of one payload
            argument (enforced by lint rule R10).
        workers: worker process count. ``1`` executes in the calling
            thread with no executor at all — a warm context cache then
            lives in the calling process itself.
        mp_context: multiprocessing start method; ``None`` = platform
            default.
        timeout_s: per-task execution bound enforced where the task
            runs.
        on_broken: callback fired once per pool breakage, e.g.
            ``breaker.record_failure``.

    :meth:`run_one` and :meth:`run_wave` may be called from any number
    of threads; the executor is created on first use and rebuilt
    lazily after a breakage.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        workers: int = 1,
        mp_context: Optional[str] = None,
        timeout_s: Optional[float] = None,
        on_broken: Optional[Callable[[], None]] = None,
    ):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.fn = fn
        self.workers = workers
        self.timeout_s = timeout_s
        self.mp_context = mp_context
        self.on_broken = on_broken
        self._lock = threading.Lock()
        self._executor = None
        self._generation = 0
        self._closed = False
        self._rebuilds = 0

    # ------------------------------------------------------------------

    def _ensure_executor(self):
        """The live executor (``None`` inline) and its generation."""
        with self._lock:
            if self._closed:
                raise RuntimeError("SupervisedPool is closed")
            if self.workers > 1 and self._executor is None:
                context = (
                    multiprocessing.get_context(self.mp_context)
                    if self.mp_context is not None
                    else None
                )
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
            return self._executor, self._generation

    def _handle_broken(self, generation: int) -> None:
        """Drop a broken executor — once per generation, not per
        thread that observed it; the next submission builds a new one."""
        with self._lock:
            if self._closed or generation != self._generation:
                return  # another thread already rebuilt this corpse
            executor, self._executor = self._executor, None
            self._generation += 1
            self._rebuilds += 1
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        if self.on_broken is not None:
            self.on_broken()

    # ------------------------------------------------------------------

    def run_wave(
        self, payloads: Sequence[Any], outcomes: Sequence[TaskOutcome]
    ) -> Iterator[TaskOutcome]:
        """Run each payload once, recording the run in its outcome.

        ``outcomes[i]`` receives ``payloads[i]``'s run. Yields each
        outcome as its run finishes: in payload order inline, in
        completion order across the pool.
        """
        try:
            executor, generation = self._ensure_executor()
        except RuntimeError as exc:
            for outcome in outcomes:
                yield _settle(outcome, STATUS_ERROR, exc, 0.0)
            return
        if executor is None:
            for payload, outcome in zip(payloads, outcomes):
                start = time.perf_counter()
                status, value = _pool_entry(self.fn, payload, self.timeout_s)
                yield _settle(
                    outcome, status, value, time.perf_counter() - start
                )
            return
        futures: Dict[Future, Tuple[TaskOutcome, float]] = {}
        for payload, outcome in zip(payloads, outcomes):
            start = time.perf_counter()
            try:
                future = executor.submit(
                    _pool_entry, self.fn, payload, self.timeout_s
                )
            except RuntimeError as exc:  # executor broke or shut down
                future = Future()
                future.set_exception(exc)
            futures[future] = (outcome, start)
        for future in as_completed(futures):
            outcome, start = futures[future]
            try:
                status, value = future.result()
            except BrokenProcessPool:
                self._handle_broken(generation)
                status, value = (
                    STATUS_POOL_BROKEN,
                    "worker process died (BrokenProcessPool)",
                )
            except Exception as exc:  # unpicklable payload/result etc.
                status, value = (
                    STATUS_ERROR,
                    f"{type(exc).__name__}: {exc}",
                )
            yield _settle(outcome, status, value, time.perf_counter() - start)

    def run_one(self, payload: Any, index: int = 0) -> TaskOutcome:
        """Execute one payload; always returns a terminal outcome.

        A worker death comes back as a ``"pool-broken"`` outcome for
        *this* task (the caller decides whether to degrade or give
        up); the pool rebuilds itself for the next caller.
        """
        outcome = TaskOutcome(index=index, status=STATUS_ERROR)
        for _ in self.run_wave([payload], [outcome]):
            pass
        return outcome

    # ------------------------------------------------------------------

    @property
    def rebuilds(self) -> int:
        """Pool breakages seen so far (each one drops the executor)."""
        with self._lock:
            return self._rebuilds

    def close(self, wait: bool = True) -> None:
        """Shut the executor down; further runs error structurally.

        ``wait=False`` returns without joining the worker processes.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)


def run_tasks(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    config: Optional[PoolConfig] = None,
    progress: Optional[Callable[[TaskOutcome], None]] = None,
) -> List[TaskOutcome]:
    """Map ``fn`` over ``payloads``; one outcome per payload, in order.

    Args:
        fn: a picklable module-level callable of one payload argument
            (pool mode pickles both the function and each payload).
        payloads: the work items.
        config: execution knobs; defaults to serial in-process.
        progress: optional callback invoked once per task with its
            outcome, in completion order.

    Returns:
        Outcomes positionally aligned with ``payloads``.
    """
    config = config if config is not None else PoolConfig()
    outcomes = [
        TaskOutcome(index=i, status=STATUS_ERROR)
        for i in range(len(payloads))
    ]
    pool = SupervisedPool(
        fn,
        workers=config.workers,
        mp_context=config.mp_context,
        timeout_s=config.timeout_s,
    )
    try:
        for outcome in pool.run_wave(payloads, outcomes):
            if progress is not None:
                progress(outcome)
    finally:
        pool.close(wait=False)
    return outcomes


__all__ = [
    "PoolConfig",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_POOL_BROKEN",
    "STATUS_TIMEOUT",
    "SupervisedPool",
    "TaskOutcome",
    "TaskTimeout",
    "call_with_timeout",
    "run_tasks",
]
