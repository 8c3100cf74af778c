"""The paper's core contribution.

* :mod:`repro.core.context` — :class:`PlanningContext`: the memoized
  distances, ``G_c``, MIS, coverage sets, ``H``, Eq. (1) times and
  ``K``-tour solves that every planner draws on; a planner called
  without one builds its own.
* :mod:`repro.core.schedule` — :class:`ChargingSchedule`: K depot-
  rooted tours with per-stop residual charging durations ``τ'`` and
  charging finish times (Eqs. 3–6, 10–12).
* :mod:`repro.core.insertion` — the extension step of Algorithm 1:
  latest-neighbour finish-time keys and case (i)/(ii) anchor selection
  (Eqs. 7–9, 13).
* :mod:`repro.core.appro` — Algorithm 1 (``Appro``) end to end.
* :mod:`repro.core.conflicts` — the conflict engine: per-sensor
  stop-group sweeps for the no-simultaneous-charging constraint, one
  project-wide touching-epsilon rule, and ``resolve_conflicts``, the
  one wait-insertion loop (over the incremental ``ConflictResolver``)
  that planning, breakdown repair and the online frames all call.
* :mod:`repro.core.validation` — feasibility validator for coverage,
  node-disjointness and the no-simultaneous-charging constraint.
* :mod:`repro.core.metaheuristic` — the anytime GA planner tier:
  Appro-seeded permutation search over sojourn stops with Or-opt/2-opt
  memetic refinement under a deterministic evaluation budget.
* :mod:`repro.core.ratio` — the approximation-ratio machinery of
  Section V (Lemma 2 bound on ``Δ_H``, Theorem 1 ratio, empirical
  lower-bound certificates).
* :mod:`repro.core.repair` — mid-round schedule repair after a vehicle
  breakdown: constraint-aware re-insertion of the failed tour's
  remaining stops onto surviving tours, with bounded retry and a
  degraded mode that defers lowest-urgency stops.
"""

from repro.core.appro import ApproArtifacts, appro_schedule
from repro.core.metaheuristic import (
    MetaheuristicTrace,
    metaheuristic_schedule,
)
from repro.core.conflicts import (
    OVERLAP_EPS,
    ConflictResolver,
    conflicting_pairs,
    minimum_pairwise_slack,
    stop_groups,
)
from repro.core.ratio import (
    approximation_ratio,
    delta_h_bound,
    empirical_lower_bound,
)
from repro.core.repair import (
    RepairConfig,
    RepairOutcome,
    repair_schedule,
)
from repro.core.schedule import ChargingSchedule, Stop
from repro.core.validation import ScheduleViolation, validate_schedule

__all__ = [
    "OVERLAP_EPS",
    "ApproArtifacts",
    "ChargingSchedule",
    "ConflictResolver",
    "MetaheuristicTrace",
    "RepairConfig",
    "RepairOutcome",
    "ScheduleViolation",
    "Stop",
    "appro_schedule",
    "approximation_ratio",
    "conflicting_pairs",
    "delta_h_bound",
    "empirical_lower_bound",
    "metaheuristic_schedule",
    "minimum_pairwise_slack",
    "repair_schedule",
    "stop_groups",
    "validate_schedule",
]
