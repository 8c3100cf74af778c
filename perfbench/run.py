"""The repository's benchmark: one command, five seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload appro-dense --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  The metric
names, units and directions come from ``BENCHMARK.json``; what each one
means on each workload, and which end-to-end metric each layer metric
should move, is in ``perfbench/spec.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it carries the environment block.  A full record of the run
(and, when traced, its spans) goes to ``.perfbench_out/``.  The exit
code is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as src:
        return json.load(src)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as src:
            for line in src:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="utf-8").strip()
        return head
    except OSError:
        return "unknown"


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    started = time.perf_counter()
    spec = load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    import_s = time.perf_counter() - started
    tracer = None
    if args.trace:
        tracer = spans.Tracer(
            f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
        )
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)

    if tracer is None:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": import_s + outcome.setup_s,
            "peak_rss_mb": peak_rss_mb(),
            **outcome.e2e,
        }
    else:
        wanted = spec["per_layer"]
        values = {
            **workloads.LAYER_DEFAULTS,
            **spans.stage_metrics(tracer, outcome.plans, outcome.traced_wall_s),
            **outcome.layer,
        }
    units = {m["name"]: m["unit"] for m in wanted}
    if set(values) != set(units):
        raise RuntimeError(
            "metric names differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}"
        )
    gates = list(outcome.gates)
    for name, value in values.items():
        if not math.isfinite(value):
            gates.append(f"metric {name} is not finite")
            values[name] = 0.0
    result = {
        "correct": not gates,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }

    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as out:
        json.dump(
            {
                "format": "perfbench/1",
                "args": vars(args),
                "environment": env,
                "gates": gates,
                **result,
            },
            out,
            indent=2,
            sort_keys=True,
        )
    if tracer is not None:
        tracer.write(str(OUT_DIR / f"{stem}.spans.jsonl"))
    for gate in gates:
        print(f"perfbench: gate failed: {gate}", file=sys.stderr)
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
