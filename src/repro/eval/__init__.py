"""Head-to-head evaluation framework (``repro eval``).

Runs every registered planner across a scenario matrix — network
sizes × request densities × K ∈ {1,2,3} — crossed with fault plans
(``none`` / ``breakdown`` / ``overload``) through the
:mod:`repro.serve.pool` engine, and emits one reproducible
``repro-eval/1`` JSON report plus an ASCII/markdown table: longest
delay, per-planner win rate against ``Appro``, deadline-miss ratio,
repair counts and wall time per cell.  Quick-mode reports carry no
timing fields, so they are byte-identical across worker counts and
``PYTHONHASHSEED`` (the parity gate of ``tests/test_eval_parity.py``).
"""

from repro.eval.matrix import (
    EvalMatrix,
    build_cells,
    default_matrix,
    quick_matrix,
    resolve_planners,
)
from repro.eval.report import (
    EVAL_FORMAT,
    build_report,
    cell_parity_lines,
    report_to_json,
)
from repro.eval.runner import run_eval
from repro.eval.table import render_cells_table, render_summary_table
from repro.eval.worker import execute_eval_cell

__all__ = [
    "EVAL_FORMAT",
    "EvalMatrix",
    "build_cells",
    "build_report",
    "cell_parity_lines",
    "default_matrix",
    "execute_eval_cell",
    "quick_matrix",
    "render_cells_table",
    "render_summary_table",
    "report_to_json",
    "resolve_planners",
    "run_eval",
]
