"""Execution-noise and fault robustness analysis of charging schedules.

The paper's schedules are computed for deterministic travel times and
exact charging durations. In the field, vehicles drive slower through
obstacles, chargers deliver slightly variable power, and sometimes a
vehicle simply dies — and the no-simultaneous-charging constraint must
hold under the *executed* timeline, not the planned one.

:func:`perturbed_execution` replays a
:class:`~repro.core.schedule.ChargingSchedule` with multiplicative
noise on every travel leg and charging duration, recomputing each
stop's realized interval, and reports whether the realized timeline
still satisfies the constraint. :func:`robustness_report` aggregates
over many noise draws into a violation probability plus the timing
slack statistics that explain it. Fault-model trials (breakdowns
triggering the repair engine, droop/slowdown stretching the timeline)
run through :func:`repro.eval.worker.execute_eval_cell`.

The planned-timeline slack statistic is the conflict engine's
:func:`repro.core.conflicts.minimum_pairwise_slack` (re-exported here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.conflicts import interval_conflicts, minimum_pairwise_slack
from repro.core.schedule import ChargingSchedule
from repro.sim.faults.timeline import ExecutedStop, replay_legs


@dataclass
class ExecutionOutcome:
    """Result of one noisy replay."""

    stops: List[ExecutedStop]
    conflicts: List[Tuple[int, int, float]]
    longest_delay_s: float

    @property
    def feasible(self) -> bool:
        return not self.conflicts


def perturbed_execution(
    schedule: ChargingSchedule,
    travel_noise: float = 0.1,
    charge_noise: float = 0.05,
    rng: Optional[np.random.Generator] = None,
) -> ExecutionOutcome:
    """Replay the schedule with multiplicative uniform noise.

    Each travel leg is scaled by a factor uniform in
    ``[1 - travel_noise, 1 + travel_noise]`` and each charging duration
    by a factor uniform in ``[1 - charge_noise, 1 + charge_noise]``
    (positive, since both noises are below 1). Waits are honoured as *earliest start
    times* relative to the planned timeline — the vehicle will not
    start charging before its planned start, matching how a real
    controller would enforce a scheduled wait. Factors are drawn in
    :func:`~repro.sim.faults.timeline.replay_legs` order: each stop's
    travel then charge factor, then the tour's return-leg factor.

    Returns:
        The realized stops, any realized cross-tour conflicts, and the
        realized longest delay.
    """
    if not 0.0 <= travel_noise < 1.0:
        raise ValueError(f"travel_noise must be in [0, 1): {travel_noise}")
    if not 0.0 <= charge_noise < 1.0:
        raise ValueError(f"charge_noise must be in [0, 1): {charge_noise}")
    # Deterministic default: repeatability is a project invariant
    # (lint rule seeded-rng); callers wanting variation pass their own
    # seeded Generator, as robustness_report does per trial.
    gen = rng if rng is not None else np.random.default_rng(0)

    executed, longest = replay_legs(
        schedule,
        lambda: float(gen.uniform(1 - travel_noise, 1 + travel_noise)),
        lambda: float(gen.uniform(1 - charge_noise, 1 + charge_noise)),
    )
    conflicts = interval_conflicts(executed, schedule.coverage)
    return ExecutionOutcome(
        stops=executed, conflicts=conflicts, longest_delay_s=longest
    )


@dataclass
class RobustnessReport:
    """Aggregate over many noisy replays."""

    trials: int
    violation_probability: float
    mean_longest_delay_s: float
    planned_longest_delay_s: float
    min_pairwise_slack_s: float

    def __str__(self) -> str:
        # No cross-tour pair shares a disk: there is no slack to report.
        slack = (
            f"{self.min_pairwise_slack_s:.1f}s"
            if math.isfinite(self.min_pairwise_slack_s)
            else "none"
        )
        return (
            f"trials={self.trials} "
            f"P(violation)={self.violation_probability:.3f} "
            f"delay {self.planned_longest_delay_s / 3600:.2f}h -> "
            f"{self.mean_longest_delay_s / 3600:.2f}h "
            f"min_slack={slack}"
        )


def robustness_report(
    schedule: ChargingSchedule,
    trials: int = 100,
    travel_noise: float = 0.1,
    charge_noise: float = 0.05,
    seed: int = 0,
) -> RobustnessReport:
    """Monte-Carlo violation probability under execution noise.

    Deterministic by default (``seed=0``) per the project's seeded-rng
    invariant; pass a different seed for an independent replication.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    gen = np.random.default_rng(seed)
    violations = 0
    delays = []
    for _ in range(trials):
        outcome = perturbed_execution(
            schedule, travel_noise=travel_noise, charge_noise=charge_noise,
            rng=gen,
        )
        if not outcome.feasible:
            violations += 1
        delays.append(outcome.longest_delay_s)
    return RobustnessReport(
        trials=trials,
        violation_probability=violations / trials,
        mean_longest_delay_s=sum(delays) / len(delays),
        planned_longest_delay_s=schedule.longest_delay(),
        min_pairwise_slack_s=minimum_pairwise_slack(schedule),
    )


__all__ = [
    "ExecutedStop",
    "ExecutionOutcome",
    "RobustnessReport",
    "minimum_pairwise_slack",
    "perturbed_execution",
    "robustness_report",
]
