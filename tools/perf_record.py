"""Write a ``repro-bench/1`` speed record from perfbench runs.

Runs ``perfbench/run.py --trace 0`` for one workload on seeds 1-5,
each in a fresh interpreter for BENCHMARK.json's ``run_seconds``, and
writes the end-to-end metrics as one record through
:mod:`repro.bench.record`: a metric's samples are its per-seed values
(so the record carries their median, min and max), and ``params`` holds
the workload, the seeds, the run length, the metric units and the
environment block perfbench printed (CPU, core count, interpreter and
library versions, commit). Run from the root of a checkout::

    python tools/perf_record.py --workload eval-matrix -o BENCH_perf_eval-matrix.json

Exits 1 without writing the record when any run fails a perfbench gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.record import bench_record, write_bench_record  # noqa: E402

#: perfbench seeds of every record: five, enough to show the spread.
SEEDS = [1, 2, 3, 4, 5]


def run_seed(workload: str, seed: int) -> Dict:
    """One untraced perfbench run: its environment block and result."""
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"perfbench {workload} seed {seed} failed "
            f"(exit {proc.returncode}): {proc.stderr.strip()}"
        )
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {
        "environment": json.loads(env_line)["environment"],
        **json.loads(result_line),
    }


def perf_record(workload: str) -> Dict:
    """Run every seed and build the record."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [run_seed(workload, seed) for seed in SEEDS]
    metrics = runs[0]["metrics"]
    return bench_record(
        f"perfbench-{workload}",
        params={
            "workload": workload,
            "seeds": SEEDS,
            "seconds": spec["run_seconds"],
            "units": {name: m["unit"] for name, m in metrics.items()},
            "environment": runs[0]["environment"],
        },
        metrics={
            name: [run["metrics"][name]["value"] for run in runs]
            for name in metrics
        },
        derived={
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
        },
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    try:
        record = perf_record(args.workload)
    except RuntimeError as exc:
        print(f"perf_record: {exc}", file=sys.stderr)
        return 1
    write_bench_record(record, args.output)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
