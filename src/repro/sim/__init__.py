"""Long-horizon WRSN monitoring simulation.

* :mod:`repro.sim.events` — a minimal discrete-event engine (time-
  ordered heap with stable tie-breaking).
* :mod:`repro.sim.mcv` — replay of a charging schedule as a
  time-stamped vehicle trajectory (diagnostics and examples).
* :mod:`repro.sim.simulator` — the one-year monitoring loop of the
  paper's evaluation: linear battery depletion, threshold-triggered
  requests, per-round scheduling, dead-duration accounting.
* :mod:`repro.sim.metrics` — the aggregate metrics of the paper's
  figures (average longest tour duration, average dead duration per
  sensor).
* :mod:`repro.sim.faults` — seeded fault injection (vehicle
  breakdowns, charge droop/interruptions, travel slowdowns, sensor
  hardware failures, depot-communication delay) and the fault-aware
  executor driving mid-round schedule repair.
* :mod:`repro.sim.deadline` — the optimistic service-time estimator
  (shared with the daemon's admission control) and the per-request
  deadline policy of the event-driven online dispatcher.
"""

from repro.sim.deadline import DeadlinePolicy, ServiceTimeEstimator
from repro.sim.events import Event, EventQueue
from repro.sim.faults import (
    FaultPlan,
    FaultyOutcome,
    RequestSurge,
    RoundFaults,
    draw_round_faults,
    execute_with_faults,
    get_scenario,
    scenario_names,
    surge_victims,
)
from repro.sim.mcv import MCVTrajectory, replay_schedule
from repro.sim.metrics import SimMetrics
from repro.sim.online import OnlineMonitoringSimulation
from repro.sim.robustness import (
    minimum_pairwise_slack,
    perturbed_execution,
    robustness_report,
)
from repro.sim.simulator import MonitoringSimulation, SECONDS_PER_YEAR
from repro.sim.trace import SimulationTrace, TraceRecorder

__all__ = [
    "DeadlinePolicy",
    "Event",
    "EventQueue",
    "FaultPlan",
    "FaultyOutcome",
    "MCVTrajectory",
    "MonitoringSimulation",
    "OnlineMonitoringSimulation",
    "RequestSurge",
    "RoundFaults",
    "SECONDS_PER_YEAR",
    "ServiceTimeEstimator",
    "SimMetrics",
    "SimulationTrace",
    "TraceRecorder",
    "draw_round_faults",
    "execute_with_faults",
    "get_scenario",
    "minimum_pairwise_slack",
    "perturbed_execution",
    "replay_schedule",
    "robustness_report",
    "scenario_names",
    "surge_victims",
]
