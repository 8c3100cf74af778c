"""The evaluation scenario matrix and its cell payloads.

One *instance* is a seeded network at one (size, density) point; one
*group* crosses an instance with a charger count ``K`` and a fault
scenario; one *cell* is a group evaluated under one planner.  Groups
are the unit of the win-rate comparison (every planner in a group
faces the identical instance and the identical fault draws).

Payloads are plain dicts of seeds and scalars — the worker rebuilds
the network deterministically from them, which keeps the pool cheap to
feed and makes results independent of worker count by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.pipeline.planner import planner_names
from repro.sim.faults.scenarios import scenario_names

#: Fault scenarios every matrix crosses (see repro.sim.faults).
EVAL_SCENARIOS: Tuple[str, ...] = ("none", "breakdown", "overload")


@dataclass(frozen=True)
class EvalMatrix:
    """The head-to-head evaluation grid.

    Attributes:
        sizes: network sizes (sensor counts).
        densities: request densities — the fraction of sensors whose
            residual energy is drawn below the request threshold.
        num_chargers: the ``K`` values to cross.
        scenarios: fault-plan names (:data:`EVAL_SCENARIOS`).
        planners: planner names; empty = every registered planner.
        trials: fault-draw rounds executed per cell.
        seed: master seed; instances, residuals and fault plans all
            derive from it.
        budget_factor: per-cell deadline budget as a multiple of a
            planner-independent makespan estimate (total charge
            workload over ``K`` plus the costliest depot round trip);
            the default lands the deadline mid-timeline, where the
            miss ratio separates planners.
        quick: quick mode — smaller grid, timing-free report.
    """

    sizes: Tuple[int, ...] = (60, 100)
    densities: Tuple[float, ...] = (0.5, 1.0)
    num_chargers: Tuple[int, ...] = (1, 2, 3)
    scenarios: Tuple[str, ...] = EVAL_SCENARIOS
    planners: Tuple[str, ...] = ()
    trials: int = 3
    seed: int = 0
    budget_factor: float = 0.75
    quick: bool = False

    def describe(self) -> Dict[str, Any]:
        """The matrix as a JSON-ready mapping (report header)."""
        return {
            "sizes": list(self.sizes),
            "densities": list(self.densities),
            "num_chargers": list(self.num_chargers),
            "scenarios": list(self.scenarios),
            "planners": list(resolve_planners(self)),
            "trials": self.trials,
            "seed": self.seed,
            "budget_factor": self.budget_factor,
        }

    def validate(self) -> None:
        """Reject a grid no cell of which could run.

        Raises:
            ValueError: on ``trials < 1``, a size or ``K`` below 1, a
                density outside ``(0, 1]``, a non-positive
                ``budget_factor``, an unregistered scenario or planner
                name, or a value repeated on one axis.
        """
        problems: List[str] = []
        if self.trials < 1:
            problems.append(f"trials must be >= 1, got {self.trials}")
        problems += [
            f"sizes must be >= 1, got {n}" for n in self.sizes if n < 1
        ]
        problems += [
            f"num_chargers must be >= 1, got {k}"
            for k in self.num_chargers
            if k < 1
        ]
        problems += [
            f"densities must be in (0, 1], got {d}"
            for d in self.densities
            if not 0.0 < d <= 1.0
        ]
        if not self.budget_factor > 0.0:
            problems.append(
                f"budget_factor must be > 0, got {self.budget_factor}"
            )
        problems += [
            f"unknown fault scenario {name!r}"
            for name in self.scenarios
            if name not in scenario_names()
        ]
        problems += [
            f"unknown planner {name!r}"
            for name in self.planners
            if name not in planner_names()
        ]
        # A repeated value would emit two cells under one cell name.
        for axis in ("sizes", "densities", "num_chargers", "scenarios",
                     "planners"):
            values = getattr(self, axis)
            if len(set(values)) != len(values):
                problems.append(f"{axis} repeat a value: {list(values)}")
        if problems:
            raise ValueError("invalid eval matrix: " + "; ".join(problems))


def default_matrix(seed: int = 0) -> EvalMatrix:
    """The full head-to-head grid (the ``BENCH_eval.json`` campaign)."""
    return EvalMatrix(seed=seed)


def quick_matrix(seed: int = 0) -> EvalMatrix:
    """The CI smoke grid: one instance, K=2, all three scenarios."""
    return EvalMatrix(
        sizes=(30,),
        densities=(0.5,),
        num_chargers=(2,),
        trials=2,
        seed=seed,
        quick=True,
    )


def resolve_planners(matrix: EvalMatrix) -> Tuple[str, ...]:
    """The planner roster of a matrix (registry order when unset)."""
    if matrix.planners:
        return tuple(matrix.planners)
    return tuple(planner_names(paper_only=False))


def instance_seed(matrix: EvalMatrix, size: int, density: float) -> int:
    """The deterministic network seed of one (size, density) instance."""
    return matrix.seed * 100_003 + size * 101 + int(round(density * 100))


def build_cells(matrix: EvalMatrix) -> List[Dict[str, Any]]:
    """Expand the matrix into ordered worker payloads.

    The order is the deterministic nested-loop order (size, density,
    K, scenario, planner) and is also the report's cell order.

    Raises:
        ValueError: see :meth:`EvalMatrix.validate`.
    """
    matrix.validate()
    planners = resolve_planners(matrix)
    cells: List[Dict[str, Any]] = []
    for size in matrix.sizes:
        for density in matrix.densities:
            net_seed = instance_seed(matrix, size, density)
            for k in matrix.num_chargers:
                for scenario in matrix.scenarios:
                    group = (
                        f"n{size}-d{int(round(density * 100))}"
                        f"-k{k}-{scenario}"
                    )
                    for planner in planners:
                        cells.append(
                            {
                                "cell": f"{group}-{planner}",
                                "group": group,
                                "num_sensors": size,
                                "density": density,
                                "num_chargers": k,
                                "scenario": scenario,
                                "planner": planner,
                                "network_seed": net_seed,
                                "fault_seed": matrix.seed,
                                "trials": matrix.trials,
                                "budget_factor": matrix.budget_factor,
                            }
                        )
    return cells
