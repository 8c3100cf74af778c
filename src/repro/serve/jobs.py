"""The serving job model: :class:`PlanJob` in, :class:`JobResult` out.

A job names one planning problem — ``(network, request set, K,
planner)`` — exactly the :func:`repro.pipeline.run_planner` signature.
Jobs about the same network geometry form a **group**: the planning
daemon plans them against one shared ``PlanningContext``/distance
cache instead of re-paying cold construction per job.

On disk a batch is a JSON Lines file (``repro-job/1``): each line is a
job carrying its network inline (``"network"``), by reference to an
earlier line's ``"network_id"`` label (``"network_ref"``), or by
instance-file path (``"network_path"``). The loader resolves all three
to shared ``WRSN`` objects, so on-disk sharing becomes in-memory
grouping automatically. Results are written back as ``repro-result/1``
lines.

Byte-stable parity: :meth:`JobResult.parity_key` canonicalizes exactly
the deterministic fields (id, status, planner, K, delay, schedule,
error) — scheduling outputs, not scheduling diagnostics — which is
what the determinism suite compares across executors and worker
counts. Timings, attempt counts and cache counters legitimately vary
between runs and stay out of the key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.io import (
    JOB_FORMAT,
    RESULT_FORMAT,
    PathLike,
    dump_jsonl_line,
    load_wrsn,
    read_jsonl,
    wrsn_from_dict,
    wrsn_to_dict,
)
from repro.network.topology import WRSN


@dataclass(frozen=True)
class PlanJob:
    """One planning problem for the planning daemon.

    Attributes:
        network: the WRSN instance. Jobs whose networks share a
            geometry share one planning-context group.
        request_ids: the to-be-charged set ``V_s``.
        num_chargers: ``K``.
        planner: registered planner name.
        job_id: caller-chosen id echoed into the result; the daemon
            assigns ``"job-<index>"`` when empty.
    """

    network: WRSN
    request_ids: Tuple[int, ...]
    num_chargers: int
    planner: str = "Appro"
    job_id: str = ""

    def __post_init__(self) -> None:
        if self.num_chargers <= 0:
            raise ValueError(
                f"num_chargers must be positive, got {self.num_chargers}"
            )
        if not self.request_ids:
            raise ValueError("a PlanJob needs a non-empty request set")


@dataclass
class JobResult:
    """Structured outcome of one job, failed or not.

    ``status`` is ``"ok"``, ``"error"`` or ``"timeout"``; failed jobs
    carry ``error`` text and ``None`` scheduling fields. ``cache``
    holds the worker-side context counters (``context_reused`` plus the
    context's memo/distance stats) and ``plan_s``/``total_s`` the
    in-worker and end-to-end seconds.
    """

    job_id: str
    index: int
    status: str
    planner: str
    num_chargers: int
    group_key: str = ""
    attempts: int = 1
    longest_delay_s: Optional[float] = None
    schedule: Optional[Dict] = None
    error: Optional[str] = None
    context_reused: bool = False
    plan_s: float = 0.0
    total_s: float = 0.0
    cache: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def parity_key(self) -> str:
        """Canonical JSON of the deterministic fields only.

        Two runs of the same batch — sequential, pooled, any worker
        count — must produce byte-identical parity keys in the same
        order.
        """
        return dump_jsonl_line(
            {
                "job_id": self.job_id,
                "index": self.index,
                "status": self.status,
                "planner": self.planner,
                "num_chargers": self.num_chargers,
                "longest_delay_s": self.longest_delay_s,
                "schedule": self.schedule,
                "error": self.error,
            }
        )

    def to_dict(self) -> Dict:
        """The full ``repro-result/1`` record."""
        return {
            "format": RESULT_FORMAT,
            "id": self.job_id,
            "index": self.index,
            "status": self.status,
            "planner": self.planner,
            "num_chargers": self.num_chargers,
            "group": self.group_key,
            "attempts": self.attempts,
            "longest_delay_s": self.longest_delay_s,
            "schedule": self.schedule,
            "error": self.error,
            "context_reused": self.context_reused,
            "plan_s": self.plan_s,
            "total_s": self.total_s,
            "cache": self.cache,
        }


# ----------------------------------------------------------------------
# JSONL job files
# ----------------------------------------------------------------------

def job_to_dict(
    job: PlanJob,
    network_id: Optional[str] = None,
    network_ref: Optional[str] = None,
) -> Dict:
    """One ``repro-job/1`` record.

    Pass ``network_ref`` to point at an earlier record's
    ``network_id`` instead of inlining the network again; pass
    ``network_id`` to label this record's inline network for later
    references.
    """
    record: Dict = {
        "format": JOB_FORMAT,
        "id": job.job_id,
        "planner": job.planner,
        "num_chargers": job.num_chargers,
        "requests": list(job.request_ids),
    }
    if network_ref is not None:
        record["network_ref"] = network_ref
    else:
        record["network"] = wrsn_to_dict(job.network)
        if network_id is not None:
            record["network_id"] = network_id
    return record


def jobs_to_jsonl(jobs: Sequence[PlanJob]) -> str:
    """Serialize jobs to JSONL, inlining each distinct network once.

    Jobs sharing a network object become ``network_ref`` lines, so the
    on-disk file round-trips back into the same sharing structure.
    """
    lines: List[str] = []
    seen: Dict[int, str] = {}
    for i, job in enumerate(jobs):
        key = id(job.network)
        if key in seen:
            record = job_to_dict(job, network_ref=seen[key])
        else:
            seen[key] = f"net-{len(seen)}"
            record = job_to_dict(job, network_id=seen[key])
        lines.append(dump_jsonl_line(record))
    return "".join(line + "\n" for line in lines)


def save_jobs(jobs: Sequence[PlanJob], path: PathLike) -> None:
    """Write a batch to a ``repro-job/1`` JSONL file."""
    Path(path).write_text(jobs_to_jsonl(jobs))


class JobStreamReader:
    """Incremental ``repro-job/1`` record reader.

    Turns one parsed record at a time into a :class:`PlanJob` while
    carrying the cross-record state that makes network sharing work:
    ``network_id`` labels bind for later ``network_ref`` lines, and
    repeated ``network_path`` entries resolve to one shared ``WRSN``
    object. The batch loaders and the long-lived daemon transport both
    drive this class — the daemon keeps one reader per connection, so
    a stream of jobs can inline each network once and reference it for
    the rest of the session.
    """

    def __init__(self, base_dir: Optional[PathLike] = None):
        self.base_dir = base_dir
        self._by_label: Dict[str, WRSN] = {}
        self._by_path: Dict[str, WRSN] = {}

    def job_from_record(self, record: Dict, lineno: int) -> PlanJob:
        """Materialize one record; ``lineno`` is 1-based for messages.

        ``requests`` must be a non-empty list of integers and
        ``num_chargers`` (default 2) an integer ≥ 1; JSON booleans,
        floats and strings are rejected, never coerced.

        Raises:
            ValueError: on a wrong format tag, a dangling
                ``network_ref``, a record with no network at all, an
                empty or mistyped request set, a bad ``num_chargers``,
                an unreadable ``network_path``, or malformed network
                fields.
        """
        if not isinstance(record, dict):
            raise ValueError(
                f"job line {lineno}: expected a JSON object, got "
                f"{type(record).__name__}"
            )
        if record.get("format") != JOB_FORMAT:
            raise ValueError(
                f"job line {lineno}: not a {JOB_FORMAT} record: "
                f"format={record.get('format')!r}"
            )
        network = self._network_of(record, lineno)
        requests = record.get("requests")
        if not requests:
            raise ValueError(
                f"job line {lineno}: needs a non-empty 'requests' list"
            )
        if not isinstance(requests, list) or not all(
            _is_int(r) for r in requests
        ):
            raise ValueError(
                f"job line {lineno}: 'requests' must be a list of "
                f"integer sensor ids, got {_excerpt(requests)}"
            )
        num_chargers = record.get("num_chargers", 2)
        if not _is_int(num_chargers) or num_chargers < 1:
            raise ValueError(
                f"job line {lineno}: 'num_chargers' must be an integer "
                f">= 1, got {_excerpt(num_chargers)}"
            )
        return PlanJob(
            network=network,
            request_ids=tuple(requests),
            num_chargers=num_chargers,
            planner=str(record.get("planner", "Appro")),
            job_id=str(record.get("id") or f"job-{lineno - 1}"),
        )

    def _network_of(self, record: Dict, lineno: int) -> WRSN:
        if "network" in record:
            network = _loaded(lineno, wrsn_from_dict, record["network"])
            label = record.get("network_id")
            if label is not None:
                self._by_label[str(label)] = network
            return network
        if "network_ref" in record:
            label = str(record["network_ref"])
            if label not in self._by_label:
                raise ValueError(
                    f"job line {lineno}: network_ref {label!r} does not "
                    f"match any earlier network_id"
                )
            return self._by_label[label]
        if "network_path" in record:
            raw_path = str(record["network_path"])
            resolved = (
                str(Path(self.base_dir) / raw_path)
                if self.base_dir is not None
                and not Path(raw_path).is_absolute()
                else raw_path
            )
            if resolved not in self._by_path:
                self._by_path[resolved] = _loaded(
                    lineno, load_wrsn, resolved
                )
            return self._by_path[resolved]
        raise ValueError(
            f"job line {lineno}: needs one of 'network', "
            f"'network_ref' or 'network_path'"
        )


def _loaded(lineno: int, load: Callable[[Any], WRSN], source: Any) -> WRSN:
    """``load(source)``; a malformed or unreadable network is a line
    error that names the cause."""
    try:
        return load(source)
    except (ValueError, OverflowError, OSError) as exc:
        raise ValueError(
            f"job line {lineno}: unusable network: {exc}"
        ) from exc


def _is_int(value: object) -> bool:
    """A JSON integer: ``int`` but not ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _excerpt(value: object, limit: int = 60) -> str:
    """``repr`` of a field value, clipped for error messages."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def deadline_from_record(record: Dict, lineno: int) -> Optional[float]:
    """The optional ``deadline_s`` of a daemon job record, in seconds.

    Raises:
        ValueError: unless the field is absent, ``null`` or a finite
            positive JSON number (booleans and strings are rejected).
    """
    deadline = record.get("deadline_s")
    if deadline is None:
        return None
    if isinstance(deadline, (int, float)) and not isinstance(deadline, bool):
        try:
            value = float(deadline)
        except OverflowError:
            value = math.inf
        if math.isfinite(value) and value > 0:
            return value
    raise ValueError(
        f"job line {lineno}: 'deadline_s' must be a finite positive "
        f"number, got {_excerpt(deadline)}"
    )


def jobs_from_records(
    records: Sequence[Dict], base_dir: Optional[PathLike] = None
) -> List[PlanJob]:
    """Materialize jobs from parsed ``repro-job/1`` records.

    Network sharing is preserved: every ``network_ref`` (and repeated
    ``network_path``) resolves to the same ``WRSN`` object, so those
    jobs are parsed and shipped to a worker as one network.

    Raises:
        ValueError: on a wrong format tag, a dangling ``network_ref``,
            a record with no network at all, or an empty request set.
    """
    reader = JobStreamReader(base_dir=base_dir)
    return [
        reader.job_from_record(record, lineno)
        for lineno, record in enumerate(records, start=1)
    ]


@dataclass(frozen=True)
class JobLineError:
    """One rejected line of a leniently-read job stream.

    Attributes:
        lineno: 1-based line number in the source stream.
        error: what was wrong with it (JSON damage or a record-level
            validation failure), prefixed ``job line <lineno>:``.
    """

    lineno: int
    error: str

    def to_result_dict(self) -> Dict:
        """A structured ``repro-result/1`` error record for the line.

        Lets stream consumers emit one output line per input line even
        for input that never became a job.
        """
        return {
            "format": RESULT_FORMAT,
            "id": f"line-{self.lineno}",
            "index": self.lineno - 1,
            "status": "error",
            "planner": None,
            "num_chargers": None,
            "group": "",
            "attempts": 0,
            "longest_delay_s": None,
            "schedule": None,
            "error": self.error,
            "context_reused": False,
            "plan_s": 0.0,
            "total_s": 0.0,
            "cache": {},
        }


def jobs_from_lines(
    lines: Iterable[str], base_dir: Optional[PathLike] = None
) -> Tuple[List[Tuple[int, PlanJob]], List[JobLineError]]:
    """Lenient line-by-line job parsing: damage is reported, not fatal.

    Each non-blank line is JSON-decoded and materialized independently;
    a malformed line (broken JSON, wrong format tag, missing network,
    bad field values) becomes a :class:`JobLineError` while later lines
    keep parsing — including ``network_ref`` lines pointing at labels
    bound *before* the damage.

    Returns:
        ``(jobs, errors)`` where ``jobs`` pairs each parsed job with
        its 1-based line number, and ``errors`` lists the rejected
        lines in stream order.
    """
    reader = JobStreamReader(base_dir=base_dir)
    jobs: List[Tuple[int, PlanJob]] = []
    errors: List[JobLineError] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            errors.append(
                JobLineError(
                    lineno, f"job line {lineno}: malformed JSON: {exc}"
                )
            )
            continue
        try:
            jobs.append((lineno, reader.job_from_record(record, lineno)))
        except (ValueError, TypeError, KeyError) as exc:
            errors.append(JobLineError(lineno, str(exc)))
    return jobs, errors


def load_jobs_lenient(
    path: PathLike,
) -> Tuple[List[Tuple[int, PlanJob]], List[JobLineError]]:
    """Leniently read a ``repro-job/1`` JSONL file.

    The malformed-input-tolerant counterpart of :func:`load_jobs`:
    damaged lines come back as :class:`JobLineError` records instead
    of aborting the whole file.
    """
    with open(path) as fh:
        return jobs_from_lines(
            fh, base_dir=Path(path).resolve().parent
        )


def load_jobs(path: PathLike) -> List[PlanJob]:
    """Read a ``repro-job/1`` JSONL file into jobs.

    Relative ``network_path`` entries resolve against the job file's
    directory.
    """
    return jobs_from_records(
        read_jsonl(path), base_dir=Path(path).resolve().parent
    )


__all__ = [
    "JobLineError",
    "JobResult",
    "JobStreamReader",
    "PlanJob",
    "deadline_from_record",
    "job_to_dict",
    "jobs_from_lines",
    "jobs_from_records",
    "jobs_to_jsonl",
    "load_jobs",
    "load_jobs_lenient",
    "save_jobs",
]
