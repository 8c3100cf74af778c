"""CLI command implementations.

Each ``cmd_*`` takes the parsed ``argparse`` namespace, prints
human-readable output to stdout, and returns a process exit code.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import replace
from typing import Any, Dict

import numpy as np

from repro.bench.runner import run_figure
from repro.io import load_wrsn, save_schedule, save_wrsn
from repro.network.requests import sensors_below_threshold
from repro.network.topology import WRSN, random_wrsn
from repro.pipeline.planner import run_planner
from repro.sim.online import OnlineMonitoringSimulation
from repro.sim.simulator import MonitoringSimulation


def _deplete(net: WRSN, seed: int) -> None:
    """Draw every residual uniformly below 20% of capacity (the
    ``generate --deplete`` field; the RNG is seeded ``seed + 1``)."""
    rng = np.random.default_rng(seed + 1)
    net.set_residuals(
        {
            sid: float(rng.uniform(0.0, 0.2)) * net.sensor(sid).capacity_j
            for sid in net.all_sensor_ids()
        }
    )


def cmd_generate(args) -> int:
    """Generate a paper-parameter instance and save it."""
    net = random_wrsn(
        num_sensors=args.num_sensors,
        seed=args.seed,
        b_max_bps=args.b_max_kbps * 1000.0,
    )
    if args.deplete:
        _deplete(net, args.seed)
    save_wrsn(net, args.output)
    state = "depleted" if args.deplete else "full batteries"
    print(
        f"wrote {args.output}: {len(net)} sensors ({state}), "
        f"depot at {tuple(net.depot.position)}"
    )
    return 0


def cmd_simulate(args) -> int:
    """Long-horizon monitoring simulation."""
    net = random_wrsn(
        num_sensors=args.num_sensors,
        seed=args.seed,
        b_max_bps=args.b_max_kbps * 1000.0,
    )
    horizon_s = args.days * 86400.0
    t0 = time.perf_counter()
    if args.algorithm == "Appro-Online":
        deadline_s = (
            args.deadline_hours * 3600.0
            if args.deadline_hours is not None
            else None
        )
        sim = OnlineMonitoringSimulation(
            net,
            num_chargers=args.num_chargers,
            horizon_s=horizon_s,
            deadline_s=deadline_s,
            audit=args.audit,
        )
    elif args.deadline_hours is not None or args.audit:
        print(
            "simulate: --deadline-hours / --audit require "
            "-a Appro-Online"
        )
        return 2
    else:
        sim = MonitoringSimulation(
            net,
            args.algorithm,
            num_chargers=args.num_chargers,
            horizon_s=horizon_s,
        )
    metrics = sim.run()
    elapsed = time.perf_counter() - t0
    print(f"algorithm                  : {args.algorithm}")
    print(f"network / chargers         : n={args.num_sensors}, "
          f"K={args.num_chargers}")
    print(f"horizon                    : {args.days:g} days")
    print(f"scheduling rounds          : {metrics.num_rounds}")
    print(f"mean longest tour duration : "
          f"{metrics.mean_longest_delay_hours:.2f} h")
    print(f"avg dead duration / sensor : "
          f"{metrics.avg_dead_time_per_sensor_minutes:.1f} min")
    print(f"sensors ever dead          : "
          f"{metrics.num_sensors_ever_dead}/{metrics.num_sensors}")
    if metrics.deadline_total > 0:
        print(f"deadline requests          : {metrics.deadline_total}")
        print(f"deadline miss ratio        : "
              f"{metrics.deadline_miss_ratio:.3f} "
              f"({metrics.deadline_misses} missed, "
              f"{metrics.deadline_dropped} deferred)")
    print(f"simulated in               : {elapsed:.1f} s")
    if args.audit:
        violations = sim.audit_overlap_violations
        print(f"simultaneous-charge audit  : "
              f"{len(violations)} violations")
        if violations:
            return 1
    return 0


def cmd_bench(args) -> int:
    """Regenerate paper figures as tables (and ASCII plots); with
    ``--output-dir``, also write them as a Markdown + JSON report."""
    from repro.bench.campaign import render_figure, write_campaign

    start = time.perf_counter()
    results = {}
    for key in dict.fromkeys(args.figures):
        results[key] = run_figure(
            key,
            instances=args.instances,
            horizon_s=args.days * 86400.0,
            progress=lambda line: print(f"  .. {line}"),
            workers=args.workers,
        )
        print()
        print(render_figure(key, results[key], plot=args.plot))
    if args.output_dir:
        paths = write_campaign(
            results, args.output_dir, horizon_days=args.days,
            wall_clock_s=time.perf_counter() - start,
        )
        print(f"\nreport : {paths['report']}")
        print(f"results: {paths['results']}")
    return 0


def cmd_inspect(args) -> int:
    """Structural + load analysis of a stored instance."""
    from repro.graphs.analysis import load_factor, structure_report

    net = load_wrsn(args.instance)
    if args.threshold >= 1.0:
        requests = net.all_sensor_ids()
    else:
        requests = sensors_below_threshold(net, threshold=args.threshold)
    load = load_factor(net, num_chargers=args.num_chargers)
    print(f"sensors                 : {len(net)}")
    print(f"analysed request set    : {len(requests)}")
    print(f"total demand            : {load.total_demand_w:.2f} W")
    print(
        f"one-to-one capacity     : {load.one_to_one_capacity_w:.2f} W "
        f"(K={args.num_chargers})"
    )
    print(f"load factor             : {load.load_factor:.2f}"
          + ("  << baselines will diverge"
             if load.predicts_baseline_divergence else ""))
    print(
        f"hottest sensor          : {load.hottest_sensor_w * 1000:.1f} mW "
        f"(full-battery lifetime {load.hottest_lifetime_h:.1f} h)"
    )
    if requests:
        report = structure_report(net, requests)
        print(f"charging graph edges    : {report.charging_graph_edges}")
        print(f"sojourn candidates |S_I|: {report.sojourn_candidates}")
        print(f"conflict-free core      : {report.conflict_free_core}")
        print(f"conflict edges / max deg: {report.conflict_edges} / "
              f"{report.delta_h} (Lemma 2 bound 26)")
        print(f"mean disk occupancy     : {report.mean_occupancy:.2f}")
        print(f"stops per sensor        : {report.stops_per_sensor:.2f}")
    return 0


def cmd_plan(args) -> int:
    """Run one registered planner on a stored or generated instance."""
    from repro.pipeline import PlanningContext

    if args.instance:
        net = load_wrsn(args.instance)
    else:
        net = random_wrsn(num_sensors=args.num_sensors, seed=args.seed)
        _deplete(net, args.seed)
    if args.threshold >= 1.0:
        requests = net.all_sensor_ids()
    else:
        requests = sensors_below_threshold(net, threshold=args.threshold)
    if not requests:
        print("no sensor is below the request threshold; nothing to do")
        return 0
    ctx = PlanningContext(net, requests)
    t0 = time.perf_counter()
    result = run_planner(
        args.planner, net, requests, args.num_chargers, context=ctx
    )
    elapsed = time.perf_counter() - t0
    uncovered = sorted(set(requests) - result.covered_sensors())
    stats = ctx.stats()
    violations = result.validate(requests)
    print(f"planner        : {result.planner}")
    print(f"requests       : {len(requests)}")
    print(f"chargers (K)   : {result.num_tours}")
    print(f"multi-node     : {result.multi_node}")
    print(f"longest delay  : {result.longest_delay() / 3600:.2f} h")
    delays = ", ".join(f"{d / 3600:.2f}" for d in result.tour_delays())
    print(f"per-tour (h)   : {delays}")
    print(f"covered        : {len(result.covered_sensors())}"
          f"/{len(requests)}")
    print(f"violations     : {len(violations)}")
    for v in violations[:10]:
        print(f"  [{v.kind}] {v.detail}")
    print(f"cache          : {stats['distance_pairs']} distance pairs, "
          f"{stats['distance_hits']} hits / "
          f"{stats['distance_misses']} misses, "
          f"{stats['memo_hits']} memo hits")
    print(f"solved in      : {elapsed:.2f} s")
    if args.output:
        save_schedule(result, args.output, algorithm=args.planner)
        print(f"schedule saved : {args.output}")
    if uncovered:
        print(f"error: {len(uncovered)} request(s) left uncovered: "
              f"{uncovered[:10]}", file=sys.stderr)
        return 1
    return 0


def _gate_cells(report: Dict[str, Any]) -> int:
    """Exit 1 when any cell's plan fails validation or its realized
    timeline charges a sensor simultaneously; else 0."""
    bad = [
        cell["cell"]
        for cell in report["cells"]
        if cell["violations"] or cell["conflicts"]
    ]
    if bad:
        print(
            f"FAIL: {len(bad)} cell(s) with plan violations or realized "
            f"conflicts: {bad[:5]}",
            file=sys.stderr,
        )
        return 1
    return 0


def _write_demo_jobs(path: str) -> None:
    """A small self-contained batch: 2 networks × 3 planners × K∈{1,2}."""
    from repro.serve import PlanJob, save_jobs

    jobs = []
    for net_seed in (11, 12):
        net = random_wrsn(num_sensors=30, seed=net_seed)
        _deplete(net, net_seed)
        requests = tuple(net.all_sensor_ids())
        for planner in ("Appro", "K-minMax", "K-EDF"):
            for k in (1, 2):
                jobs.append(
                    PlanJob(
                        network=net,
                        request_ids=requests,
                        num_chargers=k,
                        planner=planner,
                    )
                )
    save_jobs(jobs, path)


def cmd_serve(args) -> int:
    """Run a JSONL job batch through the planning daemon.

    Malformed input lines don't abort the stream: each becomes one
    structured ``repro-result/1`` error line, interleaved in input
    order with the jobs' records. Exits 0 only when every job planned
    ``ok``, no input line was malformed and no job ran degraded.
    """
    from repro.io import dump_jsonl_line
    from repro.serve import DaemonConfig, PlanningDaemon, load_jobs_lenient

    if args.demo:
        _write_demo_jobs(args.jobs)
        print(f"wrote demo batch: {args.jobs}", file=sys.stderr)
    parsed, line_errors = load_jobs_lenient(args.jobs)
    for err in line_errors:
        print(f"  {err.error}", file=sys.stderr)
    jobs = [job for _, job in parsed]
    config = DaemonConfig(
        workers=args.workers,
        timeout_s=args.timeout,
        max_queue=max(1, len(jobs)),
    )
    t0 = time.perf_counter()
    with PlanningDaemon(config) as daemon:
        tickets = daemon.run_batch(jobs)
        counters = daemon.status()["counters"]
    elapsed = time.perf_counter() - t0
    results = [ticket.wait() for ticket in tickets]
    for job, r in zip(jobs, results):
        # A job the open circuit breaker ran degraded is "ok" but names
        # the planner that ran; flag it so a mixed batch is visible.
        swapped = r["status"] == "ok" and r["planner"] != job.planner
        note = f"; degraded, {job.planner} requested" if swapped else ""
        print(
            f"  {r['id']}: {r['status']} ({r['planner']}, "
            f"K={r['num_chargers']}{note})",
            file=sys.stderr,
        )
    records = [
        (lineno, result) for (lineno, _), result in zip(parsed, results)
    ] + [(err.lineno, err.to_result_dict()) for err in line_errors]
    records.sort(key=lambda pair: pair[0])
    lines = "".join(
        dump_jsonl_line(record) + "\n" for _, record in records
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)
    statuses = Counter(r["status"] for r in results)
    tally = ", ".join(
        f"{count} {status}" for status, count in sorted(statuses.items())
    )
    groups = {r["group"] for r in results if r["group"]}
    reuses = sum(r["context_reused"] for r in results)
    print(
        f"{len(results)} jobs in {elapsed:.2f}s: {tally or 'none'} "
        f"({len(groups)} groups, {reuses} context reuses, "
        f"{counters['coalesced']} coalesced, {counters['degraded']} "
        f"degraded; {len(line_errors)} malformed input lines)",
        file=sys.stderr,
    )
    clean = statuses["ok"] == len(results) and not line_errors
    return 0 if clean and counters["degraded"] == 0 else 1


def cmd_daemon(args) -> int:
    """Run the always-on planning daemon (stdio or unix socket)."""
    import json
    import os
    import signal
    import threading

    from repro.serve.daemon import DaemonConfig, PlanningDaemon
    from repro.serve.transport import make_socket_server, serve_stream

    def load_config() -> DaemonConfig:
        config = (
            DaemonConfig.from_file(args.config)
            if args.config
            else DaemonConfig()
        )
        overrides = {}
        if args.workers is not None:
            overrides["workers"] = args.workers
        if args.timeout is not None:
            overrides["timeout_s"] = args.timeout
        if args.queue is not None:
            overrides["max_queue"] = args.queue
        if args.max_requests is not None:
            overrides["max_requests"] = args.max_requests
        if args.degraded_planner is not None:
            overrides["degraded_planner"] = args.degraded_planner
        return replace(config, **overrides) if overrides else config

    daemon = PlanningDaemon(load_config())
    daemon.start()

    if args.socket is None:
        # One session over stdin/stdout; EOF drains and exits.
        try:
            written = serve_stream(daemon, sys.stdin, sys.stdout)
        finally:
            daemon.shutdown()
        print(
            f"daemon stdio session done: {written} response lines",
            file=sys.stderr,
        )
        return 0

    server = make_socket_server(daemon, args.socket)
    stop = threading.Event()
    reload_requested = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGHUP, lambda *_: reload_requested.set())
    serve_thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    serve_thread.start()
    print(
        f"daemon listening on {args.socket} (pid {os.getpid()}, "
        f"workers {daemon.config.workers})",
        file=sys.stderr,
    )
    while not stop.wait(0.2):
        if reload_requested.is_set():
            reload_requested.clear()
            try:
                new_config = load_config()
            except (OSError, ValueError, TypeError) as exc:
                print(f"reload failed: {exc}", file=sys.stderr)
                continue
            notes = daemon.reconfigure(new_config)
            for note in notes:
                print(f"reload: {note}", file=sys.stderr)
            if not notes:
                print("reload: no changes", file=sys.stderr)
    print("draining: in-flight jobs finish, queued jobs are "
          "rejected", file=sys.stderr)
    server.shutdown()
    daemon.shutdown()
    server.close()
    print(json.dumps(daemon.status()), file=sys.stderr)
    return 0


def cmd_sanitize(args) -> int:
    """Run the runtime determinism sanitizer (repro.serve.sanitize)."""
    import json

    from repro.serve.sanitize import (
        DEFAULT_HASH_SEEDS,
        DEFAULT_WORKER_COUNTS,
        build_corpus,
        quick_corpus,
        run_matrix,
        sanitize_corpus,
    )

    hash_seeds = (
        tuple(int(s) for s in args.hash_seeds.split(","))
        if args.hash_seeds
        else DEFAULT_HASH_SEEDS
    )
    if args.workers:
        worker_counts = tuple(int(w) for w in args.workers.split(","))
    elif args.quick:
        worker_counts = (1, 2)
    else:
        worker_counts = DEFAULT_WORKER_COUNTS

    if args.jobs:
        print(f"sanitizing existing corpus: {args.jobs}", file=sys.stderr)
        report = run_matrix(
            args.jobs,
            hash_seeds=hash_seeds,
            worker_counts=worker_counts,
            plugin=args.plugin,
            online_cells=args.online,
        )
    else:
        jobs = (
            quick_corpus(seed=args.seed)
            if args.quick
            else build_corpus(seed=args.seed)
        )
        print(
            f"sanitizing a generated corpus of {len(jobs)} jobs "
            f"(seed {args.seed})",
            file=sys.stderr,
        )
        report = sanitize_corpus(
            jobs,
            hash_seeds=hash_seeds,
            worker_counts=worker_counts,
            plugin=args.plugin,
            online_cells=args.online,
        )

    for cell in report.cells:
        tag = "baseline" if cell.get("baseline") else "compared"
        mode = f" online-{cell['online']}" if cell.get("online") else ""
        print(
            f"  PYTHONHASHSEED={cell['hash_seed']} "
            f"workers={cell['workers']}{mode}: {cell['lines']} "
            f"parity lines ({tag})",
            file=sys.stderr,
        )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if report.ok:
        print(
            f"deterministic: {report.jobs} jobs byte-identical across "
            f"{len(report.cells)} interpreter/pool combinations"
        )
        return 0
    for divergence in report.divergences:
        print(f"DIVERGENT: {divergence.describe()}")
    return 1


def cmd_lint(args) -> int:
    """Run the project's static-analysis rules (repro.lint)."""
    from repro.lint import (
        all_rules,
        format_findings_json,
        format_findings_text,
        lint_paths,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:<20} {rule.severity.value:<8} "
                  f"{rule.description}")
        return 0
    try:
        findings = lint_paths(args.paths, select=args.select or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_findings_json(findings))
    elif findings:
        print(format_findings_text(findings))
    else:
        print("clean: no findings")
    return 1 if findings else 0


def cmd_eval(args) -> int:
    """Run the head-to-head planner evaluation (repro.eval)."""
    from repro.eval import (
        default_matrix,
        quick_matrix,
        render_cells_table,
        render_summary_table,
        report_to_json,
        run_eval,
    )

    base = (
        quick_matrix(seed=args.seed)
        if args.quick
        else default_matrix(seed=args.seed)
    )
    # Each axis flag replaces that field of the base matrix; the
    # matrix's own validate() rejects bad values (exit 2).
    overrides = {}
    for name in ("sizes", "densities", "num_chargers", "scenarios",
                 "planners"):
        if getattr(args, name) is not None:
            overrides[name] = tuple(getattr(args, name))
    if args.trials is not None:
        overrides["trials"] = args.trials
    matrix = replace(base, **overrides)
    report = run_eval(
        matrix,
        workers=args.workers,
        progress=lambda line: print(line, file=sys.stderr),
    )
    fmt = "markdown" if args.markdown else "ascii"
    print(render_summary_table(report, fmt=fmt))
    if args.cells:
        print()
        print(render_cells_table(report, fmt=fmt))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report_to_json(report))
        print(f"wrote {args.output}", file=sys.stderr)
    if args.bench:
        from repro.bench.record import bench_record, write_bench_record

        cells = report["cells"]
        derived = {}
        for name, stats in report["planners"].items():
            rate = stats["win_rate_vs_appro"]
            if rate is not None:
                derived[f"win_rate_vs_appro[{name}]"] = rate
            for outcome in ("wins", "ties", "losses"):
                derived[f"{outcome}_vs_appro[{name}]"] = stats[
                    f"{outcome}_vs_appro"
                ]
            derived[f"mean_planned_delay_s[{name}]"] = stats[
                "mean_planned_delay_s"
            ]
            if stats["mean_realized_delay_s"] is not None:
                derived[f"mean_realized_delay_s[{name}]"] = stats[
                    "mean_realized_delay_s"
                ]
        record = bench_record(
            benchmark="eval-head-to-head",
            params=report["matrix"],
            metrics={
                "planned_delay_s": [
                    c["planned_delay_s"] for c in cells
                ],
                "deadline_miss_ratio": [
                    c["deadline_miss_ratio"] for c in cells
                ],
            },
            derived=derived,
        )
        write_bench_record(record, args.bench)
        print(f"wrote {args.bench}", file=sys.stderr)
    return _gate_cells(report)
