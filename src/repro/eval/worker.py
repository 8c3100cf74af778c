"""The per-cell evaluation worker (module-level — lint R10).

One call plans one cell and executes its fault trials:

1. rebuild the instance network from the payload's seeds (identical
   in every process, so results are worker-count independent);
2. draw residuals — requesting sensors land below the threshold,
   healthy ones near full; under the ``overload`` scenario the
   round-0 surge additionally drains a slice of the healthy sensors
   into the request set before planning (the batch analogue of the
   online request surge);
3. plan through the registry, validate, and score the plan;
4. execute ``trials`` seeded fault rounds through
   :func:`repro.sim.faults.executor.execute_with_faults`, accumulating
   realized delays, repairs, deferrals, realized conflicts,
   breakdown and degraded-mode trials, and deadline misses.

A degraded trial deferred sensors, so its realized delay is that of a
smaller round; ``realized_mean_s``/``realized_max_s`` cover only the
trials that did not degrade, and are ``None`` when every trial did
(the ``degraded`` count says how many were left out).

The deadline budget is planner-independent: ``budget_factor`` times
a makespan estimate built only from the instance (total full-charge
workload over ``K`` plus the costliest depot round trip), so the miss
ratio compares planners, not budgets.  Wall-clock readings live only under the record's
``"timing"`` key, which quick-mode reports strip (byte parity).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Set

import numpy as np

from repro.energy.charging import ChargerSpec, full_charge_time
from repro.geometry.distcache import DistanceCache
from repro.network.topology import WRSN, random_wrsn
from repro.pipeline.planner import run_planner
from repro.sim.faults.executor import execute_with_faults
from repro.sim.faults.injector import draw_round_faults, surge_victims
from repro.sim.faults.scenarios import get_scenario

#: Residual draw bands, as fractions of capacity.
_REQUEST_BAND = (0.05, 0.20)
_HEALTHY_BAND = (0.80, 1.00)


def _build_instance(payload: Dict[str, Any]) -> "tuple[WRSN, List[int]]":
    """The cell's network and base request set (pre-surge)."""
    net = random_wrsn(payload["num_sensors"], seed=payload["network_seed"])
    ids = sorted(net.all_sensor_ids())
    want = max(1, int(round(payload["density"] * len(ids))))
    requests = ids[:want]
    requesting: Set[int] = set(requests)
    rng = np.random.default_rng(payload["network_seed"] + 1)
    residuals = {}
    for sid in ids:
        low, high = _REQUEST_BAND if sid in requesting else _HEALTHY_BAND
        residuals[sid] = float(rng.uniform(low, high)) * net.sensor(
            sid
        ).capacity_j
    net.set_residuals(residuals)
    return net, requests


def _cell_deadline_s(
    net: WRSN,
    requests: List[int],
    num_chargers: int,
    factor: float,
    spec: ChargerSpec,
) -> float:
    """``factor`` × a planner-independent makespan estimate.

    The estimate is the total full-charge workload split evenly over
    the ``K`` chargers, plus the costliest depot round trip (so tiny
    request sets still get a reachable budget).  With the default
    factor the deadline lands mid-timeline, where the miss ratio
    actually separates planners instead of saturating at 0 or 1.
    """
    dist = DistanceCache(net.positions(), net.depot.position)
    workload = 0.0
    worst_trip = 0.0
    for sid in requests:
        sensor = net.sensor(sid)
        worst_trip = max(
            worst_trip, 2.0 * dist(None, sid) / spec.travel_speed_mps
        )
        workload += full_charge_time(
            sensor.capacity_j, sensor.residual_j, spec.charge_rate_w
        )
    return factor * (workload / num_chargers + worst_trip)


def execute_eval_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Plan and fault-execute one evaluation cell.

    Args:
        payload: one entry of :func:`repro.eval.matrix.build_cells`.

    Returns:
        The cell record: identity fields, plan scores, fault
        aggregates, and a ``"timing"`` sub-dict of wall-clock seconds.
    """
    started = time.perf_counter()
    scenario = payload["scenario"]
    num_chargers = payload["num_chargers"]
    trials = payload["trials"]

    net, requests = _build_instance(payload)
    plan = get_scenario(scenario, seed=payload["fault_seed"])

    # Overload: a surge drains healthy sensors into the request set
    # before planning — every planner in the group sees the same
    # enlarged instance. The surge fires per-round with p < 1, so scan
    # the first rounds for the earliest draw that actually surged.
    surge_rng = np.random.default_rng(payload["network_seed"] + 2)
    probe = draw_round_faults(
        plan, 0, num_chargers, sensor_ids=sorted(net.all_sensor_ids())
    )
    for probe_round in range(1, 8):
        if probe.surge_fraction > 0.0:
            break
        probe = draw_round_faults(
            plan,
            probe_round,
            num_chargers,
            sensor_ids=sorted(net.all_sensor_ids()),
        )
    if probe.surge_fraction > 0.0:
        healthy = [
            sid
            for sid in sorted(net.all_sensor_ids())
            if sid not in set(requests)
        ]
        drained = surge_victims(probe, healthy)
        if drained:
            low, high = _REQUEST_BAND
            net.set_residuals(
                {
                    sid: float(surge_rng.uniform(low, high))
                    * net.sensor(sid).capacity_j
                    for sid in drained
                }
            )
            requests = sorted(set(requests) | set(drained))

    spec = ChargerSpec()
    deadline_s = _cell_deadline_s(
        net, requests, num_chargers, payload["budget_factor"], spec
    )

    plan_started = time.perf_counter()
    schedule = run_planner(
        payload["planner"], net, requests, num_chargers, charger=spec
    )
    plan_s = time.perf_counter() - plan_started
    planned_delay = schedule.longest_delay()
    violations = len(schedule.validate(requests))

    realized: List[float] = []
    repairs = 0
    deferred = 0
    conflicts = 0
    breakdowns = 0
    degraded = 0
    misses = 0
    checks = 0
    for trial in range(trials):
        draw = draw_round_faults(
            plan, trial, num_chargers, sensor_ids=requests
        )
        outcome = execute_with_faults(schedule, draw)
        if not outcome.degraded:
            realized.append(outcome.realized_delay_s)
        repairs += outcome.repairs
        deferred += len(outcome.deferred_sensors)
        conflicts += outcome.violation_count
        breakdowns += outcome.breakdown_time_s is not None
        degraded += outcome.degraded
        for sid in requests:
            checks += 1
            finish = outcome.sensor_finish_s.get(sid)
            if finish is None or finish > deadline_s:
                misses += 1

    return {
        "cell": payload["cell"],
        "group": payload["group"],
        "planner": payload["planner"],
        "num_sensors": payload["num_sensors"],
        "density": payload["density"],
        "num_chargers": num_chargers,
        "scenario": scenario,
        "requests": len(requests),
        "planned_delay_s": planned_delay,
        "realized_mean_s": (
            sum(realized) / len(realized) if realized else None
        ),
        "realized_max_s": max(realized, default=None),
        "deadline_s": deadline_s,
        "deadline_miss_ratio": misses / checks if checks else 0.0,
        "repairs": repairs,
        "deferred": deferred,
        "conflicts": conflicts,
        "breakdowns": breakdowns,
        "degraded": degraded,
        "violations": violations,
        "trials": trials,
        "timing": {
            "plan_s": plan_s,
            "wall_s": time.perf_counter() - started,
        },
    }
