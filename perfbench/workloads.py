"""The benchmark's workloads, each driven through the program's public API.

Every workload function takes ``(seed, seconds, tracer)`` and returns an
:class:`Outcome`.  ``tracer`` is ``None`` for the measured run; the
traced run passes a :class:`spans.Tracer` and gets the layer figures in
``Outcome.layer``.  Inputs are generated from ``seed`` alone, set-up is
repeated :data:`SETUP_REPEATS` times and reported as its median, and
every correctness gate that fails is appended to ``Outcome.gates``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import spans
from repro.bench.loadgen import percentile
from repro.bench.workloads import PaperParams, make_instance
from repro.core import appro
from repro.core.schedule import ChargingSchedule
from repro.eval import run_eval
from repro.eval.matrix import build_cells, default_matrix, quick_matrix
from repro.eval.worker import execute_eval_cell
from repro.io import dump_jsonl_line, schedule_to_dict
from repro.pipeline import PlannedSchedule, PlanningContext, run_planner
from repro.serve import PlanJob, reset_worker_cache
from repro.serve.daemon import DaemonConfig, PlanningDaemon
from repro.serve.pool import PoolConfig, run_tasks
from repro.sim.simulator import MonitoringSimulation

SETUP_REPEATS = 3

# Each run does a fixed amount of work, sized from ``--seconds`` by the
# nominal cost of one operation on a 2-vCPU machine.  The number of
# operations in a run must not depend on how fast the machine happens
# to be, or the metrics would aggregate different work from run to run.

#: Nominal seconds of one appro-dense cycle (one plan per instance).
DENSE_CYCLE_S = 10.0
#: Nominal seconds of one simulated year.
SIM_YEAR_S = 13.0
#: Nominal seconds of one eval matrix pass.
EVAL_PASS_S = 10.0

#: appro-dense: seeded paper-field instances, every sensor requesting.
DENSE_SENSORS = 5000
DENSE_CHARGERS = 3
DENSE_INSTANCES = 3

#: sim-year: the deployment is the paper network of instance seed 0;
#: the benchmark seed draws the initial battery levels.  A year's dead
#: time swings by a factor of ten between deployments, more than any
#: bound could absorb, while the planner load barely moves.
SIM_DEPLOYMENT_SEED = 0

#: daemon-stream: the offered rate (jobs/s), fixed, not derived from
#: measured capacity.  At 6 jobs/s the median job already queued behind
#: the large ones, and its latency moved by over a quarter between runs
#: of one seed as this 2-vCPU machine changed speed; 3 jobs/s keeps the
#: median within a tenth.
DAEMON_RATE = 3.0
DAEMON_NETWORKS = 4
DAEMON_SENSORS = 400
#: Request-set sizes as fractions of the network.  Every block of
#: ``len(DAEMON_FRACTIONS) * len(DAEMON_CHARGERS)`` jobs holds each
#: (size, K) pair once, in seeded order, so every seed offers the same
#: mix.  Three sizes put the median inside the middle class and the
#: 90th percentile inside the top one, each with a third of the jobs:
#: plan time grows steeply with size, so a percentile sitting on the
#: step between two classes, or on a class of a few jobs, would jump
#: between seeds.
DAEMON_FRACTIONS = (0.05, 0.15, 0.25)
DAEMON_CHARGERS = (1, 2, 3)
#: Per job, each sensor of the job's network drains by up to this
#: fraction of its capacity (never below 5 %).
DAEMON_DRIFT = 0.005
#: Latency limit of the goodput figure, seconds from the due send time.
DAEMON_LIMIT_S = 1.0
#: Accepted jobs re-planned serially outside the timed phase.
DAEMON_PARITY_SAMPLE = 6

EVAL_WORKERS = 2
#: Matrix groups (instance x K x scenario, every planner) replayed by
#: the traced eval run.
EVAL_TRACE_GROUPS = 6

PLANNERS = (
    "Appro",
    "K-EDF",
    "NETWRAP",
    "AA",
    "K-minMax",
    "GreedyCover",
    "Metaheuristic",
)

#: Per-layer figures of the layers only some workloads reach.  A
#: workload that bypasses a layer reports the value here: no time
#: spent there, nothing counted.
LAYER_DEFAULTS: Dict[str, float] = {
    "pipeline.invalidate_share": 0.0,
    "pipeline.invalidations": 0.0,
    "network.routing_tree_share": 0.0,
    "sim.plan_share": 0.0,
    "sim.self_share": 0.0,
    "sim.rounds": 0.0,
    "sim.requests_per_round": 0.0,
    "sim.dead_fraction": 0.0,
    "serve.submit_share": 0.0,
    "serve.queue_wait_share": 0.0,
    "serve.plan_share": 0.0,
    "serve.context_reuse_ratio": 0.0,
    "serve.latency_drift": 0.0,
    "serve.coalesced": 0.0,
    "serve.rejected": 0.0,
    "eval.pool_overhead_share": 0.0,
    "eval.repairs": 0.0,
    "eval.deadline_miss_ratio": 0.0,
    **{f"eval.cell_share.{name}": 0.0 for name in PLANNERS},
    "bench.generator_late_ratio": 0.0,
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    gates: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    #: Planner calls made while instrumented (per-plan layer means).
    plans: int = 0
    #: Wall seconds of the instrumented phase (layer shares).
    traced_wall_s: float = 0.0


def derive(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from the benchmark seed and tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def timed_setup(
    build: Callable[[], Any], close: Optional[Callable[[Any], None]] = None
) -> Tuple[Any, float]:
    """Run ``build`` :data:`SETUP_REPEATS` times; keep the last result.

    Everything alive afterwards (modules, the generated inputs) is
    frozen out of the garbage collector's scans, so collections during
    the measured phase cost what the program's own objects cost.
    """
    state = None
    times = []
    for _ in range(SETUP_REPEATS):
        if state is not None and close is not None:
            close(state)
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
    gc.collect()
    gc.freeze()
    return state, statistics.median(times)


def span(tracer, name: str):
    """A span of ``tracer``, or nothing on the untraced run."""
    return nullcontext() if tracer is None else tracer.span(name)


def repeats(seconds: float, nominal_s: float) -> int:
    """Operations of nominal length ``nominal_s`` in a run (at least 1)."""
    return max(1, int(seconds // nominal_s))


def schedule_bytes(planned: Any, planner: str = "Appro") -> str:
    return dump_jsonl_line(schedule_to_dict(planned, algorithm=planner))


def latency_e2e(latencies: Sequence[float]) -> Dict[str, float]:
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": percentile(latencies, 90),
    }


# ----------------------------------------------------------------------
# appro-dense
# ----------------------------------------------------------------------


def traced_appro(
    tracer: spans.Tracer,
    network: Any,
    requests: Sequence[int],
    num_chargers: int,
    charger: Any,
) -> Tuple[PlannedSchedule, int]:
    """Algorithm 1 stage by stage, in ``appro_schedule``'s context order.

    Calls the same functions as the planner's context branch with the
    same arguments, so the schedule must be byte-identical to
    ``run_planner("Appro")``; the instrumented functions record one
    span per stage.  Returns the schedule and its violation count.
    """
    with tracer.span("bench.plan"):
        context = PlanningContext(network, requests, charger)
        charge_times = context.charge_times_for(context.requests)
        context.charging_graph
        candidates = context.sojourn_candidates()
        coverage = context.coverage_for(candidates)
        aux_graph = context.auxiliary_graph()
        core = context.conflict_free_core()
        schedule = ChargingSchedule(
            depot=network.depot.position,
            positions=network.positions(),
            coverage=coverage,
            charge_times=charge_times,
            charger=charger,
            num_tours=num_chargers,
            distance=context.distance,
        )
        tau = {v: schedule.upper_duration(v) for v in core}
        tours, _ = context.minmax_tours(core, num_chargers, tau)
        for k, tour in enumerate(tours):
            for node in tour:
                schedule.append_stop(k, node)
        in_core = set(core)
        appro.extend_schedule(
            schedule, [v for v in candidates if v not in in_core], aux_graph
        )
        appro.resolve_conflicts(schedule)
        planned = PlannedSchedule("Appro", schedule, True, context)
        violations = len(planned.validate(requests))
    return planned, violations


def _dense_setup(seed: int) -> List[Any]:
    params = PaperParams(num_sensors=DENSE_SENSORS)
    networks = [
        make_instance(params, derive(seed, 1, i))
        for i in range(DENSE_INSTANCES)
    ]
    warm = make_instance(PaperParams(num_sensors=300), 0)
    run_planner(
        "Appro",
        warm,
        warm.all_sensor_ids(),
        DENSE_CHARGERS,
        charger=params.charger(),
    )
    return networks


def appro_dense(seed: int, seconds: float, tracer) -> Outcome:
    networks, setup_s = timed_setup(lambda: _dense_setup(seed))
    out = Outcome(setup_s=setup_s)
    charger = PaperParams().charger()
    latencies: List[float] = []
    delays: Dict[int, float] = {}
    seen: Dict[int, str] = {}
    traced_s = untraced_s = 0.0
    for plan in range(DENSE_INSTANCES * repeats(seconds, DENSE_CYCLE_S)):
        index = plan % DENSE_INSTANCES
        network = networks[index]
        requests = network.all_sensor_ids()
        # A fresh copy per plan: the shared distance cache is keyed on
        # the network object, so every plan starts cold.
        own = network.copy()
        t0 = time.perf_counter()
        planned = run_planner(
            "Appro", own, requests, DENSE_CHARGERS, charger=charger
        )
        latency = time.perf_counter() - t0
        violations = len(planned.validate(requests))
        untraced_s += time.perf_counter() - t0
        latencies.append(latency)
        delays[index] = planned.longest_delay()
        out.attempted += 1
        encoded = schedule_bytes(planned)
        if violations:
            out.failed += 1
            out.gates.append(f"appro-dense instance {index}: {violations} violations")
        if seen.setdefault(index, encoded) != encoded:
            out.gates.append(f"appro-dense instance {index}: repeat planned differently")
        if tracer is not None:
            undo = spans.instrument(tracer)
            try:
                t0 = time.perf_counter()
                traced, traced_violations = traced_appro(
                    tracer, network.copy(), requests, DENSE_CHARGERS, charger
                )
                traced_s += time.perf_counter() - t0
            finally:
                undo()
            out.plans += 1
            if traced_violations or schedule_bytes(traced) != encoded:
                out.gates.append(
                    f"appro-dense instance {index}: traced stages differ from run_planner"
                )
    out.e2e = {
        "ok_ratio": 1.0 - out.failed / out.attempted,
        "longest_delay_mean_s": statistics.fmean(delays.values()),
        **latency_e2e(latencies),
        "ops_per_s": len(latencies) / sum(latencies),
    }
    out.traced_wall_s = traced_s
    if tracer is not None:
        out.layer["bench.trace_overhead_ratio"] = traced_s / untraced_s
    return out


# ----------------------------------------------------------------------
# sim-year
# ----------------------------------------------------------------------


def _sim_setup(seed: int) -> Any:
    params = PaperParams()
    network = make_instance(params, SIM_DEPLOYMENT_SEED)
    rng = np.random.default_rng(derive(seed, 2))
    low = params.request_threshold + params.initial_margin
    fractions = rng.uniform(low, 1.0, len(network))
    network.set_residuals(
        {
            sid: float(frac) * params.capacity_j
            for sid, frac in zip(network.all_sensor_ids(), fractions)
        }
    )
    warm = make_instance(PaperParams(num_sensors=100), 0)
    MonitoringSimulation(
        warm, "Appro", params.num_chargers, horizon_s=30 * 86400.0
    ).run()
    return network


@dataclass
class _Year:
    wall_s: float
    metrics: Any
    plan_s: List[float]
    violations: int


def _simulate_year(network: Any, tracer) -> _Year:
    """One Section VI year; every round's plan is timed and validated.

    Validation runs as each plan is made (keeping every schedule for a
    later check would hold thousands of contexts alive and slow the
    collector); its time is taken out of the year's wall time.
    """
    params = PaperParams()
    plan_s: List[float] = []
    checks = {"violations": 0, "seconds": 0.0}

    def algorithm(net, requests, num_chargers, charger=None, lifetimes=None):
        t0 = time.perf_counter()
        with span(tracer, "sim.plan"):
            planned = run_planner(
                "Appro", net, requests, num_chargers, charger=charger
            )
        t1 = time.perf_counter()
        checks["violations"] += len(planned.validate(requests))
        plan_s.append(t1 - t0)
        checks["seconds"] += time.perf_counter() - t1
        return planned

    t0 = time.perf_counter()
    with span(tracer, "sim.year"):
        metrics = MonitoringSimulation(
            network, algorithm, params.num_chargers, charger=params.charger()
        ).run()
    wall_s = time.perf_counter() - t0 - checks["seconds"]
    return _Year(wall_s, metrics, plan_s, checks["violations"])


def _year_key(year: _Year) -> Tuple:
    m = year.metrics
    return (tuple(m.round_longest_delays_s), m.total_dead_time_s)


def sim_year(seed: int, seconds: float, tracer) -> Outcome:
    network, setup_s = timed_setup(lambda: _sim_setup(seed))
    out = Outcome(setup_s=setup_s)
    years = [
        _simulate_year(network, None)
        for _ in range(repeats(seconds, SIM_YEAR_S))
    ]
    if tracer is not None:
        undo = spans.instrument(tracer)
        try:
            years.append(_simulate_year(network, tracer))
        finally:
            undo()
    for year in years:
        out.attempted += year.metrics.num_rounds
        out.failed += year.violations
        if year.violations:
            out.gates.append(f"sim-year: {year.violations} violations")
        if _year_key(year) != _year_key(years[0]):
            out.gates.append("sim-year: a repeated year simulated differently")
    first = years[0]
    measured = years[:-1] if tracer is not None else years
    out.e2e = {
        "ok_ratio": 1.0 - out.failed / out.attempted,
        "longest_delay_mean_s": first.metrics.mean_longest_delay_s,
        **latency_e2e([t for y in measured for t in y.plan_s]),
        "ops_per_s": statistics.median(
            y.metrics.num_rounds / y.wall_s for y in measured
        ),
    }
    if tracer is not None:
        traced = years[-1]
        selfs = tracer.self_times()
        plan_total = sum(traced.plan_s)
        routing = selfs.get("network.routing_tree", 0.0)
        out.plans = traced.metrics.num_rounds
        out.traced_wall_s = traced.wall_s
        m = traced.metrics
        out.layer.update(
            {
                "sim.plan_share": plan_total / traced.wall_s,
                "sim.self_share": selfs.get("sim.year", 0.0) / traced.wall_s,
                "network.routing_tree_share": routing / traced.wall_s,
                "sim.rounds": float(m.num_rounds),
                "sim.requests_per_round": statistics.fmean(
                    m.round_request_counts
                ),
                "sim.dead_fraction": m.total_dead_time_s
                / (m.num_sensors * m.horizon_s),
                "bench.trace_overhead_ratio": traced.wall_s
                / statistics.median(y.wall_s for y in measured),
            }
        )
    return out


# ----------------------------------------------------------------------
# daemon-stream
# ----------------------------------------------------------------------


def daemon_corpus(seed: int, count: int) -> Tuple[List[PlanJob], List[PlanJob]]:
    """Warm-up jobs (one per network) and ``count`` timed jobs.

    Jobs cycle over :data:`DAEMON_NETWORKS` fixed paper-field networks
    (instance seeds 0 to 3); the seed draws their initial battery
    levels and everything about the jobs.  Before each job every sensor
    of its network drains a little, so each job carries drifted
    residuals; each requests a distinct subset, with sizes and ``K``
    from the fixed mix described at :data:`DAEMON_FRACTIONS`.
    """
    rng = np.random.default_rng(derive(seed, 3))
    params = PaperParams(num_sensors=DAEMON_SENSORS)
    bases = [make_instance(params, g) for g in range(DAEMON_NETWORKS)]
    ids = bases[0].all_sensor_ids()
    capacity = params.capacity_j
    low = params.request_threshold + params.initial_margin
    levels = [
        rng.uniform(low, 1.0, len(ids)) * capacity for _ in bases
    ]
    pairs = [(f, k) for f in DAEMON_FRACTIONS for k in DAEMON_CHARGERS]
    mix = [
        pairs[j]
        for _ in range(math.ceil(count / len(pairs)))
        for j in rng.permutation(len(pairs))
    ]
    seen = set()

    def job(g: int, fraction: float, k: int, job_id: str) -> PlanJob:
        network = bases[g].copy()
        network.set_residuals(dict(zip(ids, levels[g].tolist())))
        size = round(fraction * len(ids))
        while True:
            picked = rng.choice(len(ids), size=size, replace=False)
            requests = tuple(sorted(ids[i] for i in picked))
            if (g, requests) not in seen:
                seen.add((g, requests))
                break
        return PlanJob(
            network=network,
            request_ids=requests,
            num_chargers=k,
            planner="Appro",
            job_id=job_id,
        )

    warm = [job(g, 0.15, 2, f"warm-{g}") for g in range(DAEMON_NETWORKS)]
    jobs = []
    for i in range(count):
        g = i % DAEMON_NETWORKS
        drain = rng.uniform(0.0, DAEMON_DRIFT, len(ids)) * capacity
        levels[g] = np.maximum(0.05 * capacity, levels[g] - drain)
        fraction, k = mix[i]
        jobs.append(job(g, fraction, k, f"job-{i}"))
    return warm, jobs


def _daemon_setup(seed: int, count: int):
    reset_worker_cache()
    warm, jobs = daemon_corpus(seed, count)
    daemon = PlanningDaemon(DaemonConfig(workers=1)).start()
    for ticket in [daemon.submit(job) for job in warm]:
        ticket.wait(timeout_s=120.0)
    return daemon, jobs


def _replan_checked(job: PlanJob, expected: str) -> str:
    """Re-plan ``job`` serially on a cold copy; the failed gate, or ``""``."""
    planned = run_planner(
        job.planner, job.network.copy(), job.request_ids, job.num_chargers
    )
    violations = len(planned.validate(job.request_ids))
    if violations:
        return f"{violations} violations"
    if schedule_bytes(planned) != expected:
        return "daemon schedule differs from a serial re-plan"
    return ""


def daemon_stream(seed: int, seconds: float, tracer) -> Outcome:
    rate = DAEMON_RATE
    count = max(1, int(seconds * rate))
    (daemon, jobs), setup_s = timed_setup(
        lambda: _daemon_setup(seed, count), close=lambda s: s[0].shutdown()
    )
    out = Outcome(setup_s=setup_s, attempted=count)
    undo = spans.instrument(tracer) if tracer is not None else None
    sent = []
    try:
        t_start = time.perf_counter()
        origin = time.monotonic() + 0.05
        for i, job in enumerate(jobs):
            due = origin + i / rate
            pause = due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            late = max(0.0, time.monotonic() - due)
            sent.append((due, late, daemon.submit(job)))
        for _, _, ticket in sent:
            ticket.wait(timeout_s=120.0)
        out.traced_wall_s = time.perf_counter() - t_start
    finally:
        if undo is not None:
            undo()
        status = daemon.status()
        daemon.shutdown()

    ok = [
        (due, ticket)
        for due, _, ticket in sent
        if ticket.job_result is not None and ticket.job_result.ok
    ]
    out.failed = count - len(ok)
    if len(ok) < count:
        errors = sum(
            1
            for _, _, t in sent
            if t.job_result is not None and not t.job_result.ok
        )
        if errors:
            out.gates.append(f"daemon-stream: {errors} jobs ended in error")
    latencies = [ticket.resolved_at_s - due for due, ticket in ok]
    results = [ticket.job_result for _, ticket in ok]
    out.e2e = {
        "ok_ratio": len(ok) / count,
        "longest_delay_mean_s": statistics.fmean(
            r.longest_delay_s for r in results
        ),
        **latency_e2e(latencies),
        "ops_per_s": sum(1 for x in latencies if x <= DAEMON_LIMIT_S) / seconds,
    }

    # Parity: a seeded sample of accepted jobs, re-planned serially.
    rng = np.random.default_rng(derive(seed, 4))
    sample = sorted(
        rng.choice(len(ok), size=min(DAEMON_PARITY_SAMPLE, len(ok)), replace=False)
    )
    untraced_s = traced_s = 0.0
    for i in sample:
        ticket = ok[i][1]
        expected = dump_jsonl_line(ticket.job_result.schedule)
        t0 = time.perf_counter()
        checks = [_replan_checked(ticket.job, expected)]
        untraced_s += time.perf_counter() - t0
        if tracer is not None:
            undo = spans.instrument(tracer)
            try:
                t0 = time.perf_counter()
                checks.append(_replan_checked(ticket.job, expected))
                traced_s += time.perf_counter() - t0
            finally:
                undo()
        out.gates += [f"{ticket.job_id}: {gate}" for gate in checks if gate]

    if tracer is not None:
        counters = status["counters"]
        total = sum(latencies)
        third = max(1, len(latencies) // 3)
        selfs = tracer.self_times()
        out.plans = len(ok) - counters["coalesced"] + len(sample)
        out.layer.update(
            {
                "serve.submit_share": selfs.get("serve.submit", 0.0) / total,
                "serve.queue_wait_share": sum(
                    t.resolved_at_s - t.submitted_at_s - t.job_result.total_s
                    for _, t in ok
                )
                / total,
                "serve.plan_share": sum(r.plan_s for r in results) / total,
                "serve.context_reuse_ratio": sum(
                    1 for r in results if r.context_reused
                )
                / len(results),
                "serve.latency_drift": statistics.median(latencies[-third:])
                / statistics.median(latencies[:third]),
                "serve.coalesced": float(counters["coalesced"]),
                "serve.rejected": float(sum(counters["rejected"].values())),
                "bench.generator_late_ratio": max(late for _, late, _ in sent)
                * rate,
                "bench.trace_overhead_ratio": traced_s / untraced_s,
            }
        )
    return out


# ----------------------------------------------------------------------
# eval-matrix
# ----------------------------------------------------------------------


def _cell_key(record: Dict[str, Any]) -> str:
    return dump_jsonl_line({k: v for k, v in record.items() if k != "timing"})


def eval_matrix(seed: int, seconds: float, tracer) -> Outcome:
    _, setup_s = timed_setup(
        lambda: run_eval(quick_matrix(seed), workers=EVAL_WORKERS)
    )
    out = Outcome(setup_s=setup_s)
    matrix = default_matrix(seed)
    passes = []
    for _ in range(repeats(seconds, EVAL_PASS_S)):
        t0 = time.perf_counter()
        report = run_eval(matrix, workers=EVAL_WORKERS)
        passes.append((time.perf_counter() - t0, report))
    delays = []
    for _, report in passes:
        cells = report["cells"]
        out.attempted += len(cells)
        bad = [c["cell"] for c in cells if c["violations"]]
        out.failed += len(bad)
        if bad:
            out.gates.append(f"eval-matrix: violations in {bad[:5]}")
        if [_cell_key(c) for c in cells] != [
            _cell_key(c) for c in passes[0][1]["cells"]
        ]:
            out.gates.append("eval-matrix: a repeated pass differs")
        delays += [c["planned_delay_s"] for c in cells]
    out.e2e = {
        "ok_ratio": 1.0 - out.failed / out.attempted,
        "longest_delay_mean_s": statistics.fmean(delays),
        **latency_e2e([wall for wall, _ in passes]),
        "ops_per_s": statistics.median(
            len(report["cells"]) / wall for wall, report in passes
        ),
    }
    if tracer is not None:
        _trace_eval_sample(seed, matrix, tracer, out)
    return out


def _trace_eval_sample(seed: int, matrix, tracer, out: Outcome) -> None:
    """Replay a seeded sample of groups pooled, serially, and traced."""
    cells = build_cells(matrix)
    groups = sorted({c["group"] for c in cells})
    rng = np.random.default_rng(derive(seed, 5))
    chosen = {
        groups[i]
        for i in rng.choice(len(groups), size=EVAL_TRACE_GROUPS, replace=False)
    }
    sample = [c for c in cells if c["group"] in chosen]

    t0 = time.perf_counter()
    pooled = run_tasks(
        execute_eval_cell, sample, config=PoolConfig(workers=EVAL_WORKERS)
    )
    pool_wall = time.perf_counter() - t0
    pooled = [o.value if o.ok else None for o in pooled]

    # Untraced and traced cell by cell, so drift hits both alike.
    serial, traced = [], []
    untraced_s = traced_s = 0.0
    for cell in sample:
        t0 = time.perf_counter()
        serial.append(execute_eval_cell(cell))
        untraced_s += time.perf_counter() - t0
        undo = spans.instrument(tracer)
        try:
            t0 = time.perf_counter()
            with tracer.span("eval.cell"):
                traced.append(execute_eval_cell(cell))
            traced_s += time.perf_counter() - t0
        finally:
            undo()

    if any(rec is None for rec in pooled) or not (
        [_cell_key(r) for r in pooled]
        == [_cell_key(r) for r in serial]
        == [_cell_key(r) for r in traced]
    ):
        out.gates.append("eval-matrix: pooled, serial and traced cells differ")
    out.plans = len(traced)
    out.traced_wall_s = traced_s
    busy = sum(r["timing"]["wall_s"] for r in traced)
    in_cells = sum(r["timing"]["wall_s"] for r in pooled if r is not None)
    out.layer.update(
        {
            "eval.pool_overhead_share": 1.0
            - in_cells / (EVAL_WORKERS * pool_wall),
            "eval.repairs": float(sum(r["repairs"] for r in traced)),
            "eval.deadline_miss_ratio": statistics.fmean(
                r["deadline_miss_ratio"] for r in traced
            ),
            **{
                f"eval.cell_share.{name}": sum(
                    r["timing"]["wall_s"]
                    for r in traced
                    if r["planner"] == name
                )
                / busy
                for name in PLANNERS
            },
            "bench.trace_overhead_ratio": traced_s / untraced_s,
        }
    )


WORKLOADS: Dict[str, Callable[[int, float, Any], Outcome]] = {
    "appro-dense": appro_dense,
    "sim-year": sim_year,
    "daemon-stream": daemon_stream,
    "eval-matrix": eval_matrix,
}
