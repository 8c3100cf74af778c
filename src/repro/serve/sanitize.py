"""Runtime determinism sanitizer: replan a corpus under perturbation.

The static rules (R8–R11 in :mod:`repro.lint`) catch the *syntactic*
ways hash order, clocks or shared-cache pokes leak into planning
results. This module is the dynamic half of the same contract: it
replans one seeded job corpus in fresh interpreters under a matrix of
``PYTHONHASHSEED`` values × worker counts and byte-compares the
ordered :meth:`~repro.serve.jobs.JobResult.parity_key` streams. A
hash-seed divergence means some set/dict iteration order reached a
result field (possibly through an attribute or call boundary the
static dataflow cannot see); a worker-count divergence means pool
scheduling leaked into job outcomes. Either way the report names the
first diverging job and field, so the offending code path is one grep
away.

``PYTHONHASHSEED`` only takes effect at interpreter startup, so each
matrix cell is a *subprocess* running this module in child mode
(``python -m repro.serve.sanitize``); the child loads the corpus,
runs it through the full :class:`~repro.serve.daemon.PlanningDaemon`
stack at the requested worker count, and writes one parity line per
job. The parent (:func:`run_matrix`, wired to ``repro sanitize``)
builds the corpus, fans out the matrix, and diffs.

The ``--plugin`` hook imports a module inside the child before
planning — the test suite uses it to register a deliberately
order-dependent planner and prove the harness catches what the static
rule catches (``tests/test_sanitize.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.topology import random_wrsn
from repro.serve.jobs import JobResult, PlanJob, load_jobs, save_jobs

#: Default perturbation matrix: two interpreter hash seeds crossed
#: with serial, dual and quad worker pools.
DEFAULT_HASH_SEEDS: Tuple[int, ...] = (0, 1)
DEFAULT_WORKER_COUNTS: Tuple[int, ...] = (1, 2, 4)

#: Version tag of the JSON report ``repro sanitize`` emits.
REPORT_FORMAT = "repro-sanitize/1"


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------


def build_corpus(
    num_networks: int = 3,
    num_sensors: int = 30,
    planners: Sequence[str] = ("Appro", "K-minMax", "K-EDF"),
    charger_counts: Sequence[int] = (1, 2, 3),
    seed: int = 0,
) -> List[PlanJob]:
    """A deterministic planning corpus for the sanitizer.

    ``num_networks`` seeded random networks (with seeded partial
    residuals, so the request sets exercise realistic charge times) ×
    two request sets each (everyone, and every other sensor) ×
    ``planners`` × ``charger_counts``. The defaults yield
    ``3 × 2 × 3 × 3 = 54`` jobs — above the ≥50 floor the acceptance
    matrix calls for — while staying replannable in seconds.
    """
    jobs: List[PlanJob] = []
    for n in range(num_networks):
        net_seed = 1000 * seed + 11 + n
        net = random_wrsn(num_sensors=num_sensors, seed=net_seed)
        rng = np.random.default_rng(net_seed + 1)
        net.set_residuals(
            {
                sid: float(rng.uniform(0.0, 0.2))
                * net.sensor(sid).capacity_j
                for sid in net.all_sensor_ids()
            }
        )
        everyone = tuple(net.all_sensor_ids())
        for tag, requests in (("all", everyone), ("half", everyone[::2])):
            for planner in planners:
                for k in charger_counts:
                    jobs.append(
                        PlanJob(
                            network=net,
                            request_ids=requests,
                            num_chargers=k,
                            planner=planner,
                            job_id=f"n{n}-{tag}-{planner}-k{k}",
                        )
                    )
    return jobs


def quick_corpus(seed: int = 0) -> List[PlanJob]:
    """The CI-smoke corpus: one small network, 12 jobs."""
    return build_corpus(
        num_networks=1,
        num_sensors=20,
        charger_counts=(1, 2),
        seed=seed,
    )


# ----------------------------------------------------------------------
# Child mode: one matrix cell in a fresh interpreter
# ----------------------------------------------------------------------


def run_child(
    jobs_path: str,
    workers: int,
    output_path: str,
    plugin: Optional[str] = None,
) -> None:
    """Plan the corpus at one worker count; write parity lines.

    Runs inside the subprocess the parent spawned with the desired
    ``PYTHONHASHSEED``. ``plugin`` names a module to import first
    (extension planners register on import; fork-start pool workers
    inherit the registration). The corpus goes through a
    :class:`~repro.serve.daemon.PlanningDaemon` whose queue holds the
    whole corpus, so no job is rejected.
    """
    if plugin:
        import importlib

        importlib.import_module(plugin)

    from repro.serve.daemon import DaemonConfig, PlanningDaemon

    jobs = load_jobs(jobs_path)
    config = DaemonConfig(
        workers=workers,
        max_queue=max(1, len(jobs)),
        mp_context="fork" if workers > 1 else None,
    )
    with PlanningDaemon(config) as daemon:
        tickets = daemon.run_batch(jobs, timeout_s=600.0)
    results = [ticket.job_result for ticket in tickets]
    if any(result is None for result in results):
        raise RuntimeError(
            "daemon rejected jobs despite a corpus-sized queue"
        )
    with open(output_path, "w") as fh:
        for result in results:
            fh.write(result.parity_key() + "\n")


def run_online_child(
    jobs_path: str,
    variant: str,
    output_path: str,
    plugin: Optional[str] = None,
) -> None:
    """One online-replanning matrix cell: perturb, then replan.

    For every job, a seeded per-job generator (``default_rng(7000 +
    index)``) marks roughly a third of the requests as "residuals
    changed" and draws their new residual energies — the stand-in for
    mid-round arrivals mutating the network between replans. The
    ``cold`` variant then plans on a fresh
    :class:`~repro.core.context.PlanningContext`; the ``warm`` variant
    first plans on the *pre*-perturbation state to fill the context
    memos, applies the perturbation, calls
    :meth:`~repro.core.context.PlanningContext.invalidate` with the changed
    sensors, and replans on the same context. Delta invalidation is
    correct exactly when every warm cell is byte-identical to the cold
    baseline.

    Jobs sharing a network object see each other's perturbations (the
    corpus reuses networks), but both variants process jobs in the same
    order with the same draws, so the pre-replan state of every job is
    identical across cells.
    """
    if plugin:
        import importlib

        importlib.import_module(plugin)

    from repro.io import schedule_to_dict
    from repro.pipeline import PlanningContext, run_planner

    jobs = load_jobs(jobs_path)
    lines: List[str] = []
    for index, job in enumerate(jobs):
        rng = np.random.default_rng(7000 + index)
        changed = [
            sid for sid in job.request_ids if rng.random() < 1.0 / 3.0
        ] or [job.request_ids[0]]
        fresh = {
            sid: float(rng.uniform(0.05, 0.2))
            * job.network.sensor(sid).capacity_j
            for sid in changed
        }
        if variant == "warm":
            context = PlanningContext(job.network, job.request_ids)
            run_planner(
                job.planner,
                job.network,
                job.request_ids,
                job.num_chargers,
                context=context,
            )
            job.network.set_residuals(fresh)
            context.invalidate(changed)
        else:
            job.network.set_residuals(fresh)
            context = PlanningContext(job.network, job.request_ids)
        planned = run_planner(
            job.planner,
            job.network,
            job.request_ids,
            job.num_chargers,
            context=context,
        )
        result = JobResult(
            job_id=job.job_id,
            index=index,
            status="ok",
            planner=job.planner,
            num_chargers=job.num_chargers,
            longest_delay_s=planned.longest_delay(),
            schedule=schedule_to_dict(planned, algorithm=job.planner),
        )
        lines.append(result.parity_key())
    Path(output_path).write_text(
        "".join(line + "\n" for line in lines)
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Child-mode entry point (``python -m repro.serve.sanitize``)."""
    parser = argparse.ArgumentParser(
        description="sanitizer child: plan a corpus, emit parity lines"
    )
    parser.add_argument("--jobs", required=True,
                        help="repro-job/1 JSONL corpus")
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--output", required=True,
                        help="parity-line output path")
    parser.add_argument("--plugin", default=None,
                        help="module to import before planning")
    parser.add_argument("--online", choices=["cold", "warm"], default=None,
                        help="online-replanning cell: perturb residuals "
                        "per job, then cold-rebuild or delta-invalidate")
    args = parser.parse_args(argv)
    if args.online:
        run_online_child(args.jobs, args.online, args.output,
                         plugin=args.plugin)
    else:
        run_child(args.jobs, args.workers, args.output,
                  plugin=args.plugin)
    return 0


# ----------------------------------------------------------------------
# Parent mode: the perturbation matrix
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    """First point where one matrix cell left the baseline stream.

    Attributes:
        hash_seed: the cell's ``PYTHONHASHSEED``.
        workers: the cell's pool size.
        job_index: 0-based line where the streams first differ (or the
            length of the shorter stream when one is truncated).
        job_id: the baseline job id at that line, when available.
        field: first differing parity field, ``"missing-line"`` when a
            stream is short, ``"unparseable-line"`` on JSON damage.
        mode: which sweep the cell belongs to — ``"batch"`` for the
            hash-seed × worker matrix, ``"online-warm"``/
            ``"online-cold"`` for the online-replanning cells.
    """

    hash_seed: int
    workers: int
    job_index: int
    job_id: str
    field: str
    mode: str = "batch"

    def describe(self) -> str:
        tag = "" if self.mode == "batch" else f" {self.mode}"
        return (
            f"PYTHONHASHSEED={self.hash_seed} workers={self.workers}"
            f"{tag}: job {self.job_index} ({self.job_id or '?'}) "
            f"diverges in field {self.field!r}"
        )


@dataclass
class SanitizeReport:
    """Outcome of one :func:`run_matrix` sweep."""

    jobs: int
    baseline_hash_seed: int
    baseline_workers: int
    cells: List[Dict] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict:
        return {
            "format": REPORT_FORMAT,
            "jobs": self.jobs,
            "baseline": {
                "hash_seed": self.baseline_hash_seed,
                "workers": self.baseline_workers,
            },
            "cells": self.cells,
            "ok": self.ok,
            "divergences": [
                {
                    "hash_seed": d.hash_seed,
                    "workers": d.workers,
                    "job_index": d.job_index,
                    "job_id": d.job_id,
                    "field": d.field,
                    "mode": d.mode,
                }
                for d in self.divergences
            ],
        }


def first_divergence(
    baseline_text: str,
    other_text: str,
    hash_seed: int,
    workers: int,
    mode: str = "batch",
) -> Divergence:
    """Locate the first diverging job and field between two streams."""
    base_lines = baseline_text.splitlines()
    other_lines = other_text.splitlines()
    for i, (base, other) in enumerate(zip(base_lines, other_lines)):
        if base == other:
            continue
        job_id = ""
        try:
            base_rec = json.loads(base)
            other_rec = json.loads(other)
        except json.JSONDecodeError:
            return Divergence(
                hash_seed, workers, i, job_id, "unparseable-line", mode
            )
        job_id = str(base_rec.get("job_id", ""))
        for key in sorted(set(base_rec) | set(other_rec)):
            if base_rec.get(key) != other_rec.get(key):
                return Divergence(
                    hash_seed, workers, i, job_id, key, mode
                )
        # Byte difference without a field difference: key order or
        # whitespace damage in the canonical encoder itself.
        return Divergence(hash_seed, workers, i, job_id, "encoding", mode)
    short = min(len(base_lines), len(other_lines))
    return Divergence(hash_seed, workers, short, "", "missing-line", mode)


def _child_env(hash_seed: int, extra_pythonpath: Sequence[str]) -> Dict:
    """Environment for one matrix cell's subprocess."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    # Make the running repro package importable in the child even when
    # the parent was launched via PYTHONPATH manipulation or a src
    # checkout. This module lives at <src>/repro/serve/sanitize.py.
    src_dir = str(Path(__file__).resolve().parents[2])
    parts = [*extra_pythonpath, src_dir]
    existing = env.get("PYTHONPATH")
    if existing:
        parts.append(existing)
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def run_matrix(
    jobs_path: str,
    hash_seeds: Sequence[int] = DEFAULT_HASH_SEEDS,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    plugin: Optional[str] = None,
    extra_pythonpath: Sequence[str] = (),
    timeout_s: float = 600.0,
    work_dir: Optional[str] = None,
    online_cells: bool = False,
) -> SanitizeReport:
    """Replan ``jobs_path`` across the perturbation matrix and diff.

    The first ``(hash_seed, workers)`` combination is the baseline;
    every other cell's parity stream is byte-compared against it and
    each mismatch is narrowed to its first diverging job and field.

    Args:
        jobs_path: a ``repro-job/1`` JSONL corpus.
        hash_seeds: ``PYTHONHASHSEED`` values to spawn children under.
        worker_counts: pool sizes to run each hash seed at.
        plugin: module for children to import before planning.
        extra_pythonpath: prepended to the children's ``PYTHONPATH``
            (how tests expose a plugin module).
        timeout_s: per-child wall bound.
        work_dir: where to keep the per-cell parity files (a temp
            directory when omitted).
        online_cells: additionally run a cold/warm online-replanning
            sweep per hash seed (:func:`run_online_child`): every job's
            residuals are perturbed and replanned either on a fresh
            context or through
            :meth:`~repro.core.context.PlanningContext.invalidate`. These
            cells plan a *perturbed* corpus, so they diff against their
            own baseline (the first cold cell), not the batch one; a
            warm-vs-cold divergence means delta invalidation dropped
            too little state.

    Raises:
        RuntimeError: when a child exits non-zero — that is an
            infrastructure failure, not a determinism verdict.
    """
    num_jobs = len(load_jobs(jobs_path))
    report = SanitizeReport(
        jobs=num_jobs,
        baseline_hash_seed=hash_seeds[0],
        baseline_workers=worker_counts[0],
    )

    def run_cells(
        out_dir: str, cells: Sequence[Tuple[int, int, Optional[str]]]
    ) -> None:
        """Run ``(hash_seed, workers, online variant)`` cells, the
        first one the baseline every later one is diffed against."""
        baseline_text: Optional[str] = None
        for hash_seed, workers, variant in cells:
            tag = f"w{workers}" if variant is None else f"online-{variant}"
            out_path = os.path.join(
                out_dir, f"parity-h{hash_seed}-{tag}.jsonl"
            )
            cmd = [
                sys.executable,
                "-m",
                "repro.serve.sanitize",
                "--jobs", jobs_path,
                "--workers", str(workers),
                "--output", out_path,
            ]
            if variant is not None:
                cmd += ["--online", variant]
            if plugin:
                cmd += ["--plugin", plugin]
            proc = subprocess.run(
                cmd,
                env=_child_env(hash_seed, extra_pythonpath),
                capture_output=True,
                text=True,
                timeout=timeout_s,
            )
            if proc.returncode != 0:
                what = (
                    f"workers={workers}"
                    if variant is None
                    else f"online {variant}"
                )
                raise RuntimeError(
                    f"sanitizer child (PYTHONHASHSEED={hash_seed}, "
                    f"{what}) failed with code {proc.returncode}:\n"
                    f"{proc.stderr[-2000:]}"
                )
            text = Path(out_path).read_text()
            cell: Dict = {"hash_seed": hash_seed, "workers": workers}
            if variant is not None:
                cell["online"] = variant
            cell["lines"] = len(text.splitlines())
            cell["baseline"] = baseline_text is None
            if baseline_text is None:
                baseline_text = text
            elif text != baseline_text:
                report.divergences.append(
                    first_divergence(
                        baseline_text,
                        text,
                        hash_seed,
                        workers,
                        mode="batch" if variant is None else tag,
                    )
                )
            report.cells.append(cell)

    def sweep(out_dir: str) -> None:
        run_cells(
            out_dir,
            [(h, w, None) for h in hash_seeds for w in worker_counts],
        )
        if online_cells:
            run_cells(
                out_dir,
                [(h, 1, v) for h in hash_seeds for v in ("cold", "warm")],
            )

    if work_dir is not None:
        sweep(work_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as tmp:
            sweep(tmp)
    return report


def sanitize_corpus(
    jobs: Sequence[PlanJob],
    hash_seeds: Sequence[int] = DEFAULT_HASH_SEEDS,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    plugin: Optional[str] = None,
    extra_pythonpath: Sequence[str] = (),
    timeout_s: float = 600.0,
    online_cells: bool = False,
) -> SanitizeReport:
    """Save ``jobs`` to a temp corpus and :func:`run_matrix` over it."""
    with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as tmp:
        jobs_path = os.path.join(tmp, "corpus.jsonl")
        save_jobs(jobs, jobs_path)
        return run_matrix(
            jobs_path,
            hash_seeds=hash_seeds,
            worker_counts=worker_counts,
            plugin=plugin,
            extra_pythonpath=extra_pythonpath,
            timeout_s=timeout_s,
            work_dir=tmp,
            online_cells=online_cells,
        )


__all__ = [
    "DEFAULT_HASH_SEEDS",
    "DEFAULT_WORKER_COUNTS",
    "Divergence",
    "REPORT_FORMAT",
    "SanitizeReport",
    "build_corpus",
    "first_divergence",
    "main",
    "quick_corpus",
    "run_child",
    "run_matrix",
    "run_online_child",
    "sanitize_corpus",
]


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
