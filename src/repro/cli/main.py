"""CLI argument parsing and dispatch.

Kept separate from the command implementations
(:mod:`repro.cli.commands`) so the parser can be unit-tested without
executing anything.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.runner import FIGURES
from repro.cli import commands
from repro.pipeline import planner_names
from repro.sim.faults.scenarios import scenario_names

_ALGORITHM_NAMES = planner_names(paper_only=True)
_PLANNER_NAMES = planner_names()


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multi-node charging with multiple mobile chargers "
            "(Xu et al., ICDCS 2019) — reproduction toolkit."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="generate a WRSN instance and save it as JSON"
    )
    gen.add_argument("output", help="output JSON path")
    gen.add_argument("-n", "--num-sensors", type=int, default=500)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--deplete",
        action="store_true",
        help="draw residuals uniformly below the 20%% threshold",
    )
    gen.add_argument("--b-max-kbps", type=float, default=50.0)
    gen.set_defaults(func=commands.cmd_generate)

    sch = sub.add_parser(
        "schedule",
        help="run one scheduling algorithm on an instance",
    )
    sch.add_argument("instance", help="WRSN JSON (from 'generate')")
    sch.add_argument(
        "-a", "--algorithm", choices=_ALGORITHM_NAMES, default="Appro"
    )
    sch.add_argument("-k", "--num-chargers", type=int, default=2)
    sch.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="request sensors below this residual fraction "
        "(default 0.2; use 1.0 to request everyone)",
    )
    sch.add_argument("-o", "--output", help="save the schedule JSON here")
    sch.add_argument(
        "--validate", action="store_true",
        help="run the feasibility validator and report violations",
    )
    sch.set_defaults(func=commands.cmd_schedule)

    sim = sub.add_parser(
        "simulate", help="long-horizon monitoring simulation"
    )
    sim.add_argument(
        "-a", "--algorithm", choices=_ALGORITHM_NAMES + ["Appro-Online"],
        default="Appro",
    )
    sim.add_argument("-n", "--num-sensors", type=int, default=1000)
    sim.add_argument("-k", "--num-chargers", type=int, default=2)
    sim.add_argument("--days", type=float, default=60.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--b-max-kbps", type=float, default=50.0)
    sim.add_argument(
        "--deadline-hours", type=float, default=None, metavar="H",
        help="per-request latency budget for the online deadline "
        "policy (Appro-Online only); reports the miss ratio",
    )
    sim.add_argument(
        "--audit", action="store_true",
        help="Appro-Online only: sweep the realized timeline for "
        "cross-tour simultaneous charging; any violation fails the "
        "run",
    )
    sim.set_defaults(func=commands.cmd_simulate)

    bench = sub.add_parser(
        "bench",
        help="regenerate a paper figure (tables + ASCII plots)",
    )
    bench.add_argument(
        "figure", choices=sorted(FIGURES),
        help="which evaluation figure to regenerate",
    )
    bench.add_argument("--instances", type=int, default=2)
    bench.add_argument("--days", type=float, default=40.0)
    bench.add_argument(
        "--plot", action="store_true", help="also render ASCII plots"
    )
    bench.add_argument(
        "--workers", type=int, default=1,
        help="simulation worker processes (default: 1, in-process)",
    )
    bench.set_defaults(func=commands.cmd_bench)

    cmp_ = sub.add_parser(
        "compare",
        help="the paper's five algorithms on one request batch (a "
        "one-group eval matrix, no faults)",
    )
    cmp_.add_argument("-n", "--num-sensors", type=int, default=500)
    cmp_.add_argument("-k", "--num-chargers", type=int, default=2)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.set_defaults(func=commands.cmd_compare)

    rep = sub.add_parser(
        "report",
        help="run the full evaluation campaign and write a Markdown "
        "report + JSON results",
    )
    rep.add_argument(
        "-o", "--output-dir", default="evaluation-report",
        help="directory for evaluation.md / evaluation.json",
    )
    rep.add_argument("--instances", type=int, default=2)
    rep.add_argument("--days", type=float, default=40.0)
    rep.add_argument(
        "--figures", nargs="+", choices=sorted(FIGURES),
        default=sorted(FIGURES),
    )
    rep.add_argument(
        "--workers", type=int, default=1,
        help="simulation worker processes (default: 1, in-process)",
    )
    rep.set_defaults(func=commands.cmd_report)

    pln = sub.add_parser(
        "plan",
        help="run one registered planner through the unified "
        "pipeline (shared PlanningContext, coverage check)",
    )
    pln.add_argument(
        "-p", "--planner", choices=_PLANNER_NAMES, default="Appro",
    )
    pln.add_argument("-n", "--num-sensors", type=int, default=100)
    pln.add_argument("-k", "--num-chargers", type=int, default=2)
    pln.add_argument("--seed", type=int, default=0)
    pln.set_defaults(func=commands.cmd_plan)

    flt = sub.add_parser(
        "faults",
        help="fault-injection comparison: algorithms under identical "
        "seeded fault draws (a one-group eval matrix); exits 1 on any "
        "plan violation or realized conflict",
    )
    flt.add_argument(
        "scenario", nargs="?", choices=scenario_names(),
        default="breakdown",
        help="named fault scenario (default: breakdown)",
    )
    flt.add_argument(
        "-a", "--algorithms", nargs="+", choices=_ALGORITHM_NAMES,
        help="algorithms to compare (default: all)",
    )
    flt.add_argument("-n", "--num-sensors", type=int, default=100)
    flt.add_argument("-k", "--num-chargers", type=int, default=3)
    flt.add_argument(
        "--trials", type=int, default=100,
        help="fault draws per algorithm (default: 100)",
    )
    flt.add_argument("--seed", type=int, default=0)
    flt.add_argument(
        "--workers", type=int, default=1,
        help="pool processes, one algorithm per task (default: 1, "
        "in-process; results are identical at any count)",
    )
    flt.set_defaults(func=commands.cmd_faults)

    srv = sub.add_parser(
        "serve",
        help="run a JSONL batch of planning jobs through the "
        "cache-sharing worker pool",
    )
    srv.add_argument(
        "jobs",
        help="repro-job/1 JSONL file (see 'serve --demo' for a sample)",
    )
    srv.add_argument(
        "-o", "--output",
        help="write repro-result/1 JSONL here (default: stdout)",
    )
    srv.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default: 1, in-process)",
    )
    srv.add_argument(
        "--timeout", type=float, default=None,
        help="per-job execution bound in seconds (default: none)",
    )
    srv.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts for failed jobs (default: 0)",
    )
    srv.add_argument(
        "--backoff", type=float, default=0.0,
        help="base retry backoff in seconds, doubled per wave "
        "(default: 0)",
    )
    srv.add_argument(
        "--no-shared-context", action="store_true",
        help="build a cold, unshared planning context per job",
    )
    srv.add_argument(
        "--demo", action="store_true",
        help="first write a small demo job batch to the JOBS path, "
        "then run it",
    )
    srv.set_defaults(func=commands.cmd_serve)

    dmn = sub.add_parser(
        "daemon",
        help="run the always-on planning daemon: JSONL requests over "
        "stdin/stdout or a unix socket, with admission control and "
        "graceful SIGTERM drain",
    )
    dmn.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket to listen on (default: one stdio session)",
    )
    dmn.add_argument(
        "--config", default=None, metavar="JSON",
        help="DaemonConfig JSON file; SIGHUP reloads it "
        "(CLI flags override file values)",
    )
    dmn.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: 1, in-process)",
    )
    dmn.add_argument(
        "--timeout", type=float, default=None,
        help="per-job watchdog bound in seconds (default: none)",
    )
    dmn.add_argument(
        "--queue", type=int, default=None,
        help="admission queue capacity (default: 64)",
    )
    dmn.add_argument(
        "--max-requests", type=int, default=None,
        help="largest admissible request set (default: no cap)",
    )
    dmn.add_argument(
        "--degraded-planner", choices=_PLANNER_NAMES, default=None,
        help="planner used while the circuit breaker is open "
        "(default: K-EDF)",
    )
    dmn.set_defaults(func=commands.cmd_daemon)

    ins = sub.add_parser(
        "inspect",
        help="structural and load analysis of a stored instance",
    )
    ins.add_argument("instance", help="WRSN JSON (from 'generate')")
    ins.add_argument("-k", "--num-chargers", type=int, default=2)
    ins.add_argument(
        "--threshold", type=float, default=1.0,
        help="analyse the sensors below this residual fraction "
        "(default: everyone)",
    )
    ins.set_defaults(func=commands.cmd_inspect)

    lint = sub.add_parser(
        "lint",
        help="run the project's static-analysis rules over sources",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files/directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select", nargs="+", metavar="RULE",
        help="only run these rule ids (default: all rules)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    lint.set_defaults(func=commands.cmd_lint)

    san = sub.add_parser(
        "sanitize",
        help="replan a seeded corpus under PYTHONHASHSEED × worker "
        "perturbation and byte-compare the results",
    )
    san.add_argument(
        "--jobs", default=None,
        help="existing repro-job/1 corpus (default: generate a seeded "
        "54-job corpus)",
    )
    san.add_argument(
        "--quick", action="store_true",
        help="small corpus and matrix for CI smoke runs",
    )
    san.add_argument(
        "--seed", type=int, default=0,
        help="corpus generation seed (default: 0)",
    )
    san.add_argument(
        "--hash-seeds", default=None, metavar="S,S,...",
        help="comma-separated PYTHONHASHSEED values (default: 0,1)",
    )
    san.add_argument(
        "--workers", default=None, metavar="N,N,...",
        help="comma-separated pool sizes (default: 1,2,4; "
        "with --quick: 1,2)",
    )
    san.add_argument(
        "--daemon", action="store_true",
        help="also run every matrix cell through the planning daemon "
        "and byte-compare against the batch-service baseline",
    )
    san.add_argument(
        "--online", action="store_true",
        help="also run cold/warm online-replanning cells per hash "
        "seed: perturb residuals per job and byte-compare a delta-"
        "invalidated warm replan against a cold context rebuild",
    )
    san.add_argument(
        "--plugin", default=None,
        help="module the child interpreters import before planning "
        "(registers extension planners)",
    )
    san.add_argument(
        "-o", "--output", default=None,
        help="write the repro-sanitize/1 JSON report here",
    )
    san.set_defaults(func=commands.cmd_sanitize)

    evl = sub.add_parser(
        "eval",
        help="head-to-head planner evaluation: all registered "
        "planners x scenario matrix x fault plans, one reproducible "
        "repro-eval/1 report and table; exits 1 on any plan violation "
        "or realized conflict",
    )
    evl.add_argument(
        "--quick", action="store_true",
        help="small grid for CI smoke runs; the quick report carries "
        "no timings and is byte-identical at any worker count",
    )
    evl.add_argument(
        "--workers", type=int, default=1,
        help="pool processes (default: 1; results are byte-identical "
        "at any count)",
    )
    evl.add_argument(
        "--seed", type=int, default=0,
        help="master seed for instances, residuals and fault plans "
        "(default: 0)",
    )
    evl.add_argument(
        "--markdown", action="store_true",
        help="render the tables as markdown instead of ASCII",
    )
    evl.add_argument(
        "--cells", action="store_true",
        help="also print the per-cell detail table",
    )
    evl.add_argument(
        "-o", "--output", default=None,
        help="write the repro-eval/1 JSON report here",
    )
    evl.add_argument(
        "--bench", default=None, metavar="PATH",
        help="also write a repro-bench/1 record (BENCH_eval.json)",
    )
    evl.set_defaults(func=commands.cmd_eval)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
