"""The one worker-pool engine: ordered fan-out and a supervised pool.

:class:`SupervisedPool` is the only code in the package that builds a
``concurrent.futures.ProcessPoolExecutor``, runs the per-task watchdog,
notices a dead worker and fills in a :class:`TaskOutcome`. With
``workers == 1`` it runs each task inline — no executor, no pickling.
Its two callers:

* :func:`run_tasks` — the batch entry point under the planning service,
  ``repro eval``, the figure sweeps and the fault campaign — maps a
  picklable top-level function over a payload list through a pool it
  opens and closes per call, and returns one :class:`TaskOutcome` per
  payload **in payload order** regardless of completion order;
* the planning daemon, which keeps one pool (and therefore its
  workers' warm context caches) alive across requests and calls
  :meth:`SupervisedPool.run_one` from its runner threads.

Failure semantics are the same at every worker count:

* an exception raised by the function becomes an ``"error"`` outcome
  (siblings keep running — one poisoned payload never aborts a batch);
* a task exceeding ``timeout_s`` becomes a ``"timeout"`` outcome. The
  bound is enforced *inside* the executing process by running the call
  on a watchdog thread, so inline and pooled execution time out
  identically and a stuck task cannot wedge the pool's result loop;
* a worker process dying (``BrokenProcessPool``) gives the tasks in
  flight a ``"pool-broken"`` outcome; the executor is rebuilt once per
  breakage (a generation counter stops concurrent callers that saw the
  same corpse from rebuilding it twice);
* :func:`run_tasks` retries failed tasks up to ``max_retries`` times in
  later waves, with exponential backoff between waves
  (``backoff_s · 2^(wave-1)``); the final outcome records the total
  attempt count. A payload that *deterministically* kills its worker
  would break the pool once per wave, so once a call has broken more
  than :data:`MAX_POOL_REBUILDS` pools its retries stop and the
  survivors keep their terminal ``"pool-broken"`` outcomes.

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

#: Pool breakages one :func:`run_tasks` call rebuilds from; past this
#: its retry waves stop.
MAX_POOL_REBUILDS = 2


@dataclass(frozen=True)
class PoolConfig:
    """Execution knobs shared by every :func:`run_tasks` caller.

    Attributes:
        workers: process count; ``1`` (the default) runs every task
            in-process with no executor at all.
        timeout_s: per-task execution bound, seconds; ``None`` = none.
        max_retries: extra attempts granted to a failed task.
        backoff_s: base of the exponential inter-wave backoff.
        mp_context: multiprocessing start method (``"fork"``,
            ``"spawn"``, ...); ``None`` uses the platform default.
    """

    workers: int = 1
    timeout_s: Optional[float] = None
    max_retries: int = 0
    backoff_s: float = 0.0
    mp_context: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout must be positive, got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_s < 0:
            raise ValueError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )


@dataclass
class TaskOutcome:
    """What happened to one payload, across all its attempts."""

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


def backoff_delay_s(wave: int, backoff_s: float) -> float:
    """Exponential backoff before retry wave ``wave`` (1-based)."""
    if wave <= 0 or backoff_s <= 0:
        return 0.0
    return backoff_s * (2.0 ** (wave - 1))


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
    """Fold one finished attempt into ``outcome``."""
    outcome.attempts += 1
    outcome.elapsed_s += elapsed_s
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
        """Run each payload once, folding the attempt into its outcome.

        ``outcomes[i]`` receives ``payloads[i]``'s attempt (attempt
        count and elapsed time accumulate across calls). Yields each
        outcome as its attempt finishes: in payload order inline, in
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
        *this* task (the caller decides whether to retry, degrade or
        give up); the pool rebuilds itself for the next caller.
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
            *final* outcome, in completion order.

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
        pending = list(range(len(payloads)))
        for wave in range(config.max_retries + 1):
            if not pending:
                break
            if wave:
                time.sleep(backoff_delay_s(wave, config.backoff_s))
            last = wave == config.max_retries
            for outcome in pool.run_wave(
                [payloads[i] for i in pending],
                [outcomes[i] for i in pending],
            ):
                if progress is not None and (outcome.ok or last):
                    progress(outcome)
            pending = [i for i in pending if not outcomes[i].ok]
            if pool.rebuilds > MAX_POOL_REBUILDS:
                # The payload set breaks every pool it meets: end the
                # survivors' retries on their current outcomes.
                if not last and progress is not None:
                    for i in pending:
                        progress(outcomes[i])
                break
    finally:
        pool.close(wait=False)
    return outcomes


__all__ = [
    "MAX_POOL_REBUILDS",
    "PoolConfig",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_POOL_BROKEN",
    "STATUS_TIMEOUT",
    "SupervisedPool",
    "TaskOutcome",
    "TaskTimeout",
    "backoff_delay_s",
    "call_with_timeout",
    "run_tasks",
]
