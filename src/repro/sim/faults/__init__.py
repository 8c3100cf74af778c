"""Fault injection for the monitoring simulation.

The subsystem splits into four pieces:

* :mod:`repro.sim.faults.specs` — declarative fault specifications
  (MCV breakdowns, charge droop/interruption, travel slowdowns,
  sensor hardware failures, depot-communication delay) composed into
  seeded :class:`FaultPlan` objects;
* :mod:`repro.sim.faults.injector` — the seeded injector mapping
  ``(plan, round index)`` to one concrete :class:`RoundFaults` draw,
  deterministically;
* :mod:`repro.sim.faults.scenarios` — the named scenario registry the
  CLI and benchmarks share;
* :mod:`repro.sim.faults.executor` — fault-aware execution of a
  scheduled round, invoking the repair engine
  (:mod:`repro.core.repair`) on breakdowns;
* :mod:`repro.sim.faults.timeline` — realized-timeline replay, whose
  stops the conflict engine (:mod:`repro.core.conflicts`) checks.
"""

from repro.sim.faults.executor import FaultyOutcome, execute_with_faults
from repro.sim.faults.injector import (
    draw_round_faults,
    rng_for_round,
    surge_victims,
)
from repro.sim.faults.scenarios import (
    SCENARIOS,
    get_scenario,
    scenario_names,
)
from repro.sim.faults.specs import (
    BreakdownEvent,
    ChargeDroop,
    ChargeInterruption,
    DepotCommDelay,
    FaultPlan,
    FaultSpec,
    MCVBreakdown,
    NO_FAULTS,
    RequestSurge,
    RoundFaults,
    SensorFailure,
    TravelSlowdown,
)
from repro.sim.faults.timeline import (
    ExecutedStop,
    replay_with_factors,
)

__all__ = [
    "BreakdownEvent",
    "ChargeDroop",
    "ChargeInterruption",
    "DepotCommDelay",
    "ExecutedStop",
    "FaultPlan",
    "FaultSpec",
    "FaultyOutcome",
    "MCVBreakdown",
    "NO_FAULTS",
    "RequestSurge",
    "RoundFaults",
    "SCENARIOS",
    "SensorFailure",
    "TravelSlowdown",
    "draw_round_faults",
    "execute_with_faults",
    "get_scenario",
    "replay_with_factors",
    "rng_for_round",
    "scenario_names",
    "surge_victims",
]
