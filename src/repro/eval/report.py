"""The ``repro-eval/1`` report envelope.

The report is one JSON document: the matrix header, the ordered cell
records, and a per-planner summary with strict wins, ties and losses
against ``Appro``.  Quick-mode reports strip every wall-clock field,
so the serialized bytes are a pure function of (matrix, code) — the
parity tests compare them across worker counts and ``PYTHONHASHSEED``.
Full-mode reports keep per-cell timings under a separate ``timings``
key, deliberately outside the parity surface.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.eval.matrix import EvalMatrix, resolve_planners
from repro.io import dump_jsonl_line

EVAL_FORMAT = "repro-eval/1"

#: A planner ties Appro within this relative slack.
_TIE_REL_TOL = 1e-9


def _versus(delay_s: float, appro_delay_s: float) -> str:
    """``"wins"``, ``"ties"`` or ``"losses"`` against Appro's delay."""
    if delay_s < appro_delay_s * (1.0 - _TIE_REL_TOL):
        return "wins"
    if delay_s > appro_delay_s * (1.0 + _TIE_REL_TOL):
        return "losses"
    return "ties"


def _mean_present(values: Iterable[Optional[float]]) -> Optional[float]:
    """Mean of the values that are not ``None`` (``None`` if none are)."""
    present = [value for value in values if value is not None]
    return sum(present) / len(present) if present else None


def build_report(
    matrix: EvalMatrix, records: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Assemble the ``repro-eval/1`` document from cell records.

    Args:
        matrix: the evaluated matrix.
        records: :func:`repro.eval.worker.execute_eval_cell` outputs,
            in :func:`repro.eval.matrix.build_cells` order.

    Returns:
        The report mapping (JSON-ready).
    """
    cells = [
        {key: value for key, value in rec.items() if key != "timing"}
        for rec in records
    ]

    # Wins/ties/losses vs Appro, per group (same instance, K and fault
    # draws).
    appro_delay: Dict[str, float] = {}
    for rec in records:
        if rec["planner"] == "Appro":
            appro_delay[rec["group"]] = rec["planned_delay_s"]

    planners: Dict[str, Dict[str, Any]] = {}
    for name in resolve_planners(matrix):
        mine = [rec for rec in records if rec["planner"] == name]
        if not mine:
            continue
        scored = [rec for rec in mine if rec["group"] in appro_delay]
        tally = {"wins": 0, "ties": 0, "losses": 0}
        for rec in scored:
            tally[
                _versus(rec["planned_delay_s"], appro_delay[rec["group"]])
            ] += 1
        planners[name] = {
            "cells": len(mine),
            "scored_vs_appro": len(scored),
            "wins_vs_appro": tally["wins"],
            "ties_vs_appro": tally["ties"],
            "losses_vs_appro": tally["losses"],
            "win_rate_vs_appro": (
                tally["wins"] / len(scored) if scored else None
            ),
            "mean_planned_delay_s": (
                sum(rec["planned_delay_s"] for rec in mine) / len(mine)
            ),
            "mean_realized_delay_s": _mean_present(
                rec["realized_mean_s"] for rec in mine
            ),
            "mean_deadline_miss_ratio": (
                sum(rec["deadline_miss_ratio"] for rec in mine)
                / len(mine)
            ),
            "total_repairs": sum(rec["repairs"] for rec in mine),
            "total_violations": sum(rec["violations"] for rec in mine),
        }

    report: Dict[str, Any] = {
        "format": EVAL_FORMAT,
        "quick": matrix.quick,
        "matrix": matrix.describe(),
        "cells": cells,
        "planners": planners,
    }
    if not matrix.quick:
        report["timings"] = {
            rec["cell"]: rec["timing"] for rec in records
        }
    return report


def report_to_json(report: Dict[str, Any]) -> str:
    """Canonical serialization (sorted keys, trailing newline)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def cell_parity_lines(report: Dict[str, Any]) -> List[str]:
    """One canonical JSONL line per cell, for divergence reporting.

    The parity tests feed these through
    :func:`repro.serve.sanitize.first_divergence` when two reports
    disagree, pinpointing the first differing cell and field.
    """
    return [dump_jsonl_line(cell) for cell in report["cells"]]
