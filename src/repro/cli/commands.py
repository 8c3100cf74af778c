"""CLI command implementations.

Each ``cmd_*`` takes the parsed ``argparse`` namespace, prints
human-readable output to stdout, and returns a process exit code.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict

import numpy as np

from repro.bench.ascii_plot import plot_experiment
from repro.bench.reporting import (
    format_series_table,
    improvement_over_best_baseline,
)
from repro.bench.runner import FIGURES, run_figure
from repro.core.validation import validate_schedule
from repro.energy.charging import ChargerSpec
from repro.io import load_wrsn, save_schedule, save_wrsn
from repro.network.requests import sensors_below_threshold
from repro.network.topology import random_wrsn
from repro.pipeline.planner import planner_names, run_planner
from repro.sim.online import OnlineMonitoringSimulation
from repro.sim.simulator import MonitoringSimulation


def cmd_generate(args) -> int:
    """Generate a paper-parameter instance and save it."""
    net = random_wrsn(
        num_sensors=args.num_sensors,
        seed=args.seed,
        b_max_bps=args.b_max_kbps * 1000.0,
    )
    if args.deplete:
        rng = np.random.default_rng(args.seed + 1)
        net.set_residuals(
            {
                sid: float(rng.uniform(0.0, 0.2))
                * net.sensor(sid).capacity_j
                for sid in net.all_sensor_ids()
            }
        )
    save_wrsn(net, args.output)
    state = "depleted" if args.deplete else "full batteries"
    print(
        f"wrote {args.output}: {len(net)} sensors ({state}), "
        f"depot at {tuple(net.depot.position)}"
    )
    return 0


def cmd_schedule(args) -> int:
    """Run one algorithm on a stored instance."""
    net = load_wrsn(args.instance)
    if args.threshold >= 1.0:
        requests = net.all_sensor_ids()
    else:
        requests = sensors_below_threshold(net, threshold=args.threshold)
    if not requests:
        print("no sensor is below the request threshold; nothing to do")
        return 0
    spec = ChargerSpec()
    lifetimes = {sid: 1e12 for sid in requests}
    t0 = time.perf_counter()
    result = run_planner(
        args.algorithm, net, requests, args.num_chargers, charger=spec,
        lifetimes=lifetimes,
    )
    elapsed = time.perf_counter() - t0
    print(f"algorithm      : {args.algorithm}")
    print(f"requests       : {len(requests)}")
    print(f"chargers (K)   : {args.num_chargers}")
    print(f"longest delay  : {result.longest_delay() / 3600:.2f} h")
    if hasattr(result, "tour_delays"):
        delays = ", ".join(
            f"{d / 3600:.2f}" for d in result.tour_delays()
        )
        print(f"per-tour (h)   : {delays}")
    print(f"solved in      : {elapsed:.2f} s")
    if args.validate:
        if hasattr(result, "coverage"):
            violations = validate_schedule(result, requests)
            print(f"violations     : {len(violations)}")
            for v in violations[:10]:
                print(f"  [{v.kind}] {v.detail}")
        else:
            print("violations     : n/a (one-to-one baseline)")
    if args.output:
        save_schedule(result, args.output, algorithm=args.algorithm)
        print(f"schedule saved : {args.output}")
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
    """Regenerate one paper figure as tables (and ASCII plots)."""
    title = FIGURES[args.figure].title
    result = run_figure(
        args.figure,
        instances=args.instances,
        horizon_s=args.days * 86400.0,
        progress=lambda line: print(f"  .. {line}"),
        workers=args.workers,
    )
    print()
    print(format_series_table(
        result, "longest_delay_h", f"{title} — longest tour duration",
        "hours",
    ))
    print()
    print(format_series_table(
        result, "dead_min", f"{title} — avg dead duration per sensor",
        "minutes",
    ))
    gains = improvement_over_best_baseline(result, "longest_delay_h")
    print(
        "\nAppro improvement over the best baseline per point: "
        + ", ".join(f"{g:.0%}" for g in gains)
    )
    if args.plot:
        print()
        print(plot_experiment(
            result, "longest_delay_h",
            f"{title} — longest tour duration", "h",
        ))
        print()
        print(plot_experiment(
            result, "dead_min",
            f"{title} — dead duration", "min",
        ))
    return 0


def cmd_report(args) -> int:
    """Run the full campaign and write the report files."""
    from repro.bench.campaign import run_campaign, write_campaign

    campaign = run_campaign(
        instances=args.instances,
        horizon_days=args.days,
        figures=tuple(args.figures),
        progress=lambda line: print(f"  .. {line}"),
        workers=args.workers,
    )
    paths = write_campaign(campaign, args.output_dir)
    print(f"report : {paths['report']}")
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


def cmd_compare(args) -> int:
    """The paper's five planners on one fully-requesting instance."""
    from repro.eval import paired_matrix, run_eval

    report = run_eval(
        paired_matrix(
            "none", planner_names(paper_only=True), args.num_sensors,
            args.num_chargers, trials=1, seed=args.seed,
        )
    )
    print(
        f"n={args.num_sensors}, all requesting, K={args.num_chargers}\n"
    )
    print(f"{'algorithm':<10} {'longest delay (h)':>18} {'runtime (s)':>12}")
    print("-" * 44)
    rows: Dict[str, float] = {}
    for cell in report["cells"]:
        rows[cell["planner"]] = cell["planned_delay_s"]
        print(
            f"{cell['planner']:<10} {cell['planned_delay_s'] / 3600:>18.2f} "
            f"{report['timings'][cell['cell']]['plan_s']:>12.2f}"
        )
    best_baseline = min(v for k, v in rows.items() if k != "Appro")
    print(
        f"\nAppro is {1 - rows['Appro'] / best_baseline:.0%} shorter than "
        f"the best one-to-one baseline."
    )
    return _gate_cells(report)


def cmd_plan(args) -> int:
    """Run one registered planner through the unified pipeline."""
    from repro.pipeline import PlanningContext

    net = random_wrsn(num_sensors=args.num_sensors, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    net.set_residuals(
        {
            sid: float(rng.uniform(0.0, 0.2)) * net.sensor(sid).capacity_j
            for sid in net.all_sensor_ids()
        }
    )
    requests = net.all_sensor_ids()
    ctx = PlanningContext(net, requests)
    t0 = time.perf_counter()
    result = run_planner(
        args.planner, net, requests, args.num_chargers, context=ctx
    )
    elapsed = time.perf_counter() - t0
    uncovered = sorted(set(requests) - result.covered_sensors())
    stats = ctx.stats()
    print(f"planner        : {result.planner}")
    print(f"requests       : {len(requests)}")
    print(f"chargers (K)   : {result.num_tours}")
    print(f"multi-node     : {result.multi_node}")
    print(f"longest delay  : {result.longest_delay() / 3600:.2f} h")
    delays = ", ".join(f"{d / 3600:.2f}" for d in result.tour_delays())
    print(f"per-tour (h)   : {delays}")
    print(f"covered        : {len(result.covered_sensors())}"
          f"/{len(requests)}")
    print(f"violations     : {len(result.validate(requests))}")
    print(f"cache          : {stats['distance_pairs']} distance pairs, "
          f"{stats['distance_hits']} hits / "
          f"{stats['distance_misses']} misses, "
          f"{stats['memo_hits']} memo hits")
    print(f"solved in      : {elapsed:.2f} s")
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


def cmd_faults(args) -> int:
    """Compare planners under identical seeded fault draws."""
    from repro.eval import paired_matrix, render_cells_table, run_eval

    print(
        f"scenario={args.scenario} n={args.num_sensors} "
        f"K={args.num_chargers} trials={args.trials} seed={args.seed}\n"
    )
    report = run_eval(
        paired_matrix(
            args.scenario,
            args.algorithms or planner_names(paper_only=True),
            args.num_sensors,
            args.num_chargers,
            trials=args.trials,
            seed=args.seed,
        ),
        workers=args.workers,
        progress=lambda line: print(line, file=sys.stderr),
    )
    print(render_cells_table(report))
    conflicts = sum(cell["conflicts"] for cell in report["cells"])
    print(
        f"\nrealized constraint violations across "
        f"{args.trials} fault trials: {conflicts}"
    )
    return _gate_cells(report)


def _write_demo_jobs(path: str) -> None:
    """A small self-contained batch: 2 networks × 3 planners × K∈{1,2}."""
    from repro.serve import PlanJob, save_jobs

    jobs = []
    for net_seed in (11, 12):
        net = random_wrsn(num_sensors=30, seed=net_seed)
        rng = np.random.default_rng(net_seed + 1)
        net.set_residuals(
            {
                sid: float(rng.uniform(0.0, 0.2))
                * net.sensor(sid).capacity_j
                for sid in net.all_sensor_ids()
            }
        )
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
    """Run a JSONL job batch through the batch planning service.

    Malformed input lines don't abort the stream: each becomes one
    structured ``repro-result/1`` error line, interleaved in input
    order with the planned jobs' results.
    """
    from repro.io import dump_jsonl_line
    from repro.serve import PlanningService, load_jobs_lenient

    if args.demo:
        _write_demo_jobs(args.jobs)
        print(f"wrote demo batch: {args.jobs}", file=sys.stderr)
    parsed, line_errors = load_jobs_lenient(args.jobs)
    for err in line_errors:
        print(f"  line {err.lineno}: {err.error}", file=sys.stderr)
    jobs = [job for _, job in parsed]
    service = PlanningService(
        workers=args.workers,
        timeout_s=args.timeout,
        max_retries=args.retries,
        backoff_s=args.backoff,
        share_contexts=not args.no_shared_context,
    )
    t0 = time.perf_counter()
    results = service.run(
        jobs,
        progress=lambda r: print(
            f"  {r.job_id}: {r.status} ({r.planner}, K={r.num_chargers})",
            file=sys.stderr,
        ),
    )
    elapsed = time.perf_counter() - t0
    records = [
        (lineno, result.to_dict())
        for (lineno, _), result in zip(parsed, results)
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
    stats = service.stats()
    print(
        f"{stats['jobs']} jobs in {elapsed:.2f}s: {stats['ok']} ok, "
        f"{stats['errors']} errors, {stats['timeouts']} timeouts "
        f"({stats['groups']} groups, {stats['context_reuses']} context "
        f"reuses, {stats['memo_hits']} memo hits; "
        f"{len(line_errors)} malformed input lines)",
        file=sys.stderr,
    )
    return 0 if stats["ok"] == stats["jobs"] and not line_errors else 1


def cmd_daemon(args) -> int:
    """Run the always-on planning daemon (stdio or unix socket)."""
    import json
    import os
    import signal
    import threading
    from dataclasses import replace

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
            daemon_cells=args.daemon,
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
            daemon_cells=args.daemon,
            online_cells=args.online,
        )

    for cell in report.cells:
        tag = "baseline" if cell.get("baseline") else "compared"
        mode = " daemon" if cell.get("daemon") else ""
        if cell.get("online"):
            mode = f" online-{cell['online']}"
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

    matrix = (
        quick_matrix(seed=args.seed)
        if args.quick
        else default_matrix(seed=args.seed)
    )
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
        record = bench_record(
            benchmark="eval-head-to-head",
            params=report["matrix"],
            metrics={
                "planned_delay_s": [
                    c["planned_delay_s"] for c in cells
                ],
                "realized_mean_s": [c["realized_mean_s"] for c in cells],
                "deadline_miss_ratio": [
                    c["deadline_miss_ratio"] for c in cells
                ],
            },
            derived=derived,
        )
        write_bench_record(record, args.bench)
        print(f"wrote {args.bench}", file=sys.stderr)
    return _gate_cells(report)
