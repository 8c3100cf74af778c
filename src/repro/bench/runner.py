"""The paper's figures and the sweep engine that reproduces them.

:data:`FIGURES` is the one table of the evaluation section: per
figure, the x-axis, its title, the base :class:`PaperParams` and how
each x value overrides it. :func:`run_figure` turns one entry into
sweep points for :func:`run_sweep`, which for each point and each
seeded instance runs the monitoring simulation once per algorithm and
averages the two paper metrics — so ``run_figure("fig3")`` covers
Fig. 3(a) *and* 3(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.workloads import PaperParams, make_instance
from repro.serve.pool import PoolConfig, TaskOutcome, run_tasks
from repro.sim.metrics import SimMetrics
from repro.sim.simulator import MonitoringSimulation

#: Figure-legend order used everywhere in reporting.
DEFAULT_ALGORITHMS = ("Appro", "K-EDF", "NETWRAP", "AA", "K-minMax")


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis point of a sweep.

    Attributes:
        label: the x-axis value as shown in the figure (e.g. ``600``).
        params: the full parameter set at this point.
    """

    label: float
    params: PaperParams


@dataclass
class ExperimentResult:
    """All measurements of one figure reproduction.

    ``mean_longest_delay_h[alg][i]`` is the average longest tour
    duration (hours) of algorithm ``alg`` at sweep point ``i``;
    ``avg_dead_min`` is the average dead duration per sensor (minutes).
    """

    name: str
    x_label: str
    x_values: List[float] = field(default_factory=list)
    mean_longest_delay_h: Dict[str, List[float]] = field(default_factory=dict)
    avg_dead_min: Dict[str, List[float]] = field(default_factory=dict)
    instances: int = 0

    def algorithms(self) -> List[str]:
        return list(self.mean_longest_delay_h)

    def series(self, metric: str) -> Dict[str, List[float]]:
        """One of the two metric families by name."""
        if metric == "longest_delay_h":
            return self.mean_longest_delay_h
        if metric == "dead_min":
            return self.avg_dead_min
        raise KeyError(
            f"unknown metric {metric!r}; expected 'longest_delay_h' or "
            f"'dead_min'"
        )


def simulate_once(
    params: PaperParams,
    algorithm: str,
    seed: int,
    horizon_s: Optional[float] = None,
) -> SimMetrics:
    """One instance × one algorithm monitoring simulation."""
    network = make_instance(params, seed)
    sim = MonitoringSimulation(
        network=network,
        algorithm=algorithm,
        num_chargers=params.num_chargers,
        charger=params.charger(),
        threshold=params.request_threshold,
        horizon_s=horizon_s if horizon_s is not None else params.horizon_s,
    )
    return sim.run()


def _sweep_cell(payload: Dict) -> Tuple[float, float]:
    """One (point, algorithm, instance) simulation — the pool unit.

    Module-level so the serve pool can pickle it; returns just the two
    averaged paper metrics, keeping the cross-process payload small.
    """
    metrics = simulate_once(
        payload["params"],
        payload["algorithm"],
        seed=payload["seed"],
        horizon_s=payload["horizon_s"],
    )
    return (
        metrics.mean_longest_delay_hours,
        metrics.avg_dead_time_per_sensor_minutes,
    )


def run_sweep(
    name: str,
    x_label: str,
    points: Sequence[SweepPoint],
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    instances: int = 2,
    horizon_s: Optional[float] = None,
    base_seed: int = 20190707,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
) -> ExperimentResult:
    """Run a full sweep and average the paper metrics.

    Execution fans out over :func:`repro.serve.pool.run_tasks` — one
    task per (point, algorithm, instance) cell — and the metric means
    are folded from the ordered outcome list, so every worker count
    (including the serial default) sums the same floats in the same
    order and produces identical results.

    Args:
        name: experiment id (e.g. ``"fig3"``).
        x_label: x-axis description for reporting.
        points: the sweep points.
        algorithms: registry names to compare.
        instances: seeded instances per point (paper: 100).
        horizon_s: simulation horizon override (paper: one year).
        base_seed: instance seeds are ``base_seed + 1009 * i``.
        progress: optional callback receiving one line per completed
            (point, algorithm) cell.
        workers: simulation worker processes; ``1`` runs in-process.

    Returns:
        The populated :class:`ExperimentResult`.

    Raises:
        RuntimeError: when any simulation cell fails.
    """
    if instances <= 0:
        raise ValueError(f"instances must be positive, got {instances}")
    result = ExperimentResult(
        name=name, x_label=x_label, instances=instances
    )
    for alg in algorithms:
        result.mean_longest_delay_h[alg] = []
        result.avg_dead_min[alg] = []

    payloads: List[Dict] = []
    for point in points:
        for alg in algorithms:
            for i in range(instances):
                payloads.append(
                    {
                        "params": point.params,
                        "algorithm": alg,
                        "seed": base_seed + 1009 * i,
                        "horizon_s": horizon_s,
                    }
                )

    num_algs = len(list(algorithms))
    cell_values: Dict[int, List[Optional[Tuple[float, float]]]] = {}
    cell_filled: Dict[int, int] = {}

    def _on_outcome(outcome: TaskOutcome) -> None:
        # Stream one progress line per fully-simulated (point, alg)
        # cell; the authoritative fold below reuses the ordered
        # outcome list, not this accumulator.
        if progress is None or not outcome.ok:
            return
        cell, inst = divmod(outcome.index, instances)
        cell_values.setdefault(cell, [None] * instances)[inst] = (
            outcome.value
        )
        cell_filled[cell] = cell_filled.get(cell, 0) + 1
        if cell_filled[cell] < instances:
            return
        values = cell_values.pop(cell)
        point_i, alg_i = divmod(cell, num_algs)
        delay_h = sum(v[0] for v in values) / instances
        dead_min = sum(v[1] for v in values) / instances
        progress(
            f"{name} {x_label}={points[point_i].label} "
            f"{list(algorithms)[alg_i]}: "
            f"delay={delay_h:.2f}h dead={dead_min:.1f}min"
        )

    outcomes = run_tasks(
        _sweep_cell,
        payloads,
        config=PoolConfig(workers=workers),
        progress=_on_outcome,
    )
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise RuntimeError(
            f"{len(failed)} sweep cell(s) failed; first: "
            f"{failed[0].error}"
        )

    cursor = 0
    for point in points:
        result.x_values.append(point.label)
        for alg in algorithms:
            cell = outcomes[cursor:cursor + instances]
            cursor += instances
            result.mean_longest_delay_h[alg].append(
                sum(o.value[0] for o in cell) / instances
            )
            result.avg_dead_min[alg].append(
                sum(o.value[1] for o in cell) / instances
            )
    return result


@dataclass(frozen=True)
class Figure:
    """One figure of the paper's evaluation (Section VI-B).

    Attributes:
        x_label: the x-axis name recorded in the result.
        title: the display title of reports and tables.
        base: the parameters every point shares.
        x_values: the paper's x-axis.
        override: the :class:`PaperParams` fields one x value sets.
    """

    x_label: str
    title: str
    base: PaperParams
    x_values: Tuple[float, ...]
    override: Callable[[Any], Dict[str, Any]]


#: The three figures, both panels each, keyed as on the command line.
FIGURES: Dict[str, Figure] = {
    "fig3": Figure(
        x_label="n",
        title="Fig. 3 — vs network size n (K=2)",
        base=PaperParams(num_chargers=2),
        x_values=(200, 400, 600, 800, 1000, 1200),
        override=lambda n: {"num_sensors": n},
    ),
    "fig4": Figure(
        x_label="b_max_kbps",
        title="Fig. 4 — vs max data rate b_max (n=1000, K=2)",
        base=PaperParams(num_sensors=1000, num_chargers=2),
        x_values=(10, 20, 30, 40, 50),
        override=lambda b: {"b_max_bps": b * 1000.0},
    ),
    "fig5": Figure(
        x_label="K",
        title="Fig. 5 — vs number of chargers K (n=1000)",
        base=PaperParams(num_sensors=1000),
        x_values=(1, 2, 3, 4, 5),
        override=lambda k: {"num_chargers": k},
    ),
}


def run_figure(
    key: str,
    instances: int = 2,
    horizon_s: Optional[float] = None,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    x_values: Optional[Sequence[float]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
) -> ExperimentResult:
    """Reproduce one figure of :data:`FIGURES`.

    Paper scale is 100 instances per point and a one-year horizon;
    reduced ``instances`` / ``horizon_s`` keep CI runs tractable.

    Args:
        key: ``"fig3"``, ``"fig4"`` or ``"fig5"``.
        instances: seeded instances per point.
        horizon_s: simulation horizon override.
        algorithms: registry names to compare.
        x_values: a subset of the x-axis; default the paper's.
        progress: see :func:`run_sweep`.
        workers: see :func:`run_sweep`.

    Raises:
        KeyError: on an unknown figure key.
    """
    figure = FIGURES[key]
    points = [
        SweepPoint(
            label=x, params=figure.base.with_overrides(**figure.override(x))
        )
        for x in (figure.x_values if x_values is None else x_values)
    ]
    return run_sweep(
        key, figure.x_label, points, algorithms=algorithms,
        instances=instances, horizon_s=horizon_s, progress=progress,
        workers=workers,
    )
