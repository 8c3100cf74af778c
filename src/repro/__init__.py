"""Reproduction of Xu et al., ICDCS 2019.

``repro`` implements the full system described in *"Minimizing the
Longest Charge Delay of Multiple Mobile Chargers for Wireless
Rechargeable Sensor Networks by Charging Multiple Sensors
Simultaneously"*:

* a wireless rechargeable sensor network (WRSN) substrate — geometry,
  energy consumption, batteries, topology, routing and charging
  requests (:mod:`repro.geometry`, :mod:`repro.energy`,
  :mod:`repro.network`);
* the graph machinery the paper builds on — unit-disk charging graphs,
  maximal independent sets and the auxiliary conflict graph ``H``
  (:mod:`repro.graphs`);
* tour construction — TSP heuristics, local search and the rooted
  min-max ``K``-tour splitting used as the paper's ``K``-optimal closed
  tour subroutine (:mod:`repro.tours`);
* the paper's contribution — the ``Appro`` approximation algorithm,
  charging schedules with per-stop finish times and a feasibility
  validator for the no-simultaneous-charging constraint
  (:mod:`repro.core`);
* the four baselines used in the evaluation — ``K-EDF``, ``NETWRAP``,
  ``AA`` and ``K-minMax`` (:mod:`repro.baselines`);
* the unified planner pipeline — a memoized
  :class:`~repro.core.context.PlanningContext` per workload and a registry
  running every algorithm through one interface
  (:mod:`repro.pipeline`);
* a one-year event-driven monitoring simulator and the benchmark
  harness that regenerates every figure of the paper's evaluation
  (:mod:`repro.sim`, :mod:`repro.bench`).

Quickstart::

    from repro import PlanningContext, planner_names, run_planner
    from repro import random_wrsn

    net = random_wrsn(num_sensors=300, seed=7)
    requests = net.all_sensor_ids()
    ctx = PlanningContext(net, requests)
    for name in planner_names(paper_only=True):
        result = run_planner(name, net, requests, 2, context=ctx)
        print(name, result.longest_delay())
"""

from repro.baselines import (
    aa_schedule,
    kedf_schedule,
    kminmax_baseline_schedule,
    netwrap_schedule,
)
from repro.core import (
    ChargingSchedule,
    ScheduleViolation,
    appro_schedule,
    validate_schedule,
)
from repro.energy.charging import ChargerSpec
from repro.network.topology import WRSN, random_wrsn
from repro.pipeline import (
    PlannedSchedule,
    PlanningContext,
    planner_names,
    run_planner,
)
from repro.sim.simulator import MonitoringSimulation

__all__ = [
    "ChargerSpec",
    "ChargingSchedule",
    "MonitoringSimulation",
    "PlannedSchedule",
    "PlanningContext",
    "ScheduleViolation",
    "WRSN",
    "aa_schedule",
    "appro_schedule",
    "kedf_schedule",
    "kminmax_baseline_schedule",
    "netwrap_schedule",
    "planner_names",
    "random_wrsn",
    "run_planner",
    "validate_schedule",
]

__version__ = "1.0.0"
