"""ASCII / markdown rendering of an eval report.

Two tables: a per-planner summary (strict wins/ties/losses vs Appro,
mean delays, miss ratio, repairs) and the per-cell detail (longest
delay, miss ratio, repairs, realized conflicts, deferred sensors,
breakdown and degraded trials, wall time — ``-`` when the report
carries no timings, and for a realized delay when every trial
degraded).  ``fmt="markdown"`` emits pipe tables; ``"ascii"`` pads with
spaces under a dashed rule.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence


def _seconds(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1f}"


def _render(rows: List[List[str]], header: Sequence[str], fmt: str) -> str:
    widths = [
        max(len(str(header[i])), *(len(row[i]) for row in rows))
        if rows
        else len(str(header[i]))
        for i in range(len(header))
    ]
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(str(h) for h in header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        lines.extend(
            "| " + " | ".join(row) + " |" for row in rows
        )
        return "\n".join(lines)
    head = "  ".join(
        str(h).ljust(widths[i]) for i, h in enumerate(header)
    )
    rule = "  ".join("-" * w for w in widths)
    lines = [head, rule]
    lines.extend(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    )
    return "\n".join(lines)


def render_summary_table(
    report: Dict[str, Any], fmt: str = "ascii"
) -> str:
    """The per-planner summary table of a ``repro-eval/1`` report."""
    header = (
        "planner",
        "cells",
        "W/T/L vs Appro",
        "mean delay (s)",
        "mean realized (s)",
        "miss ratio",
        "repairs",
    )
    rows = []
    for name, stats in report["planners"].items():
        rows.append(
            [
                name,
                str(stats["cells"]),
                f"{stats['wins_vs_appro']}/{stats['ties_vs_appro']}"
                f"/{stats['losses_vs_appro']}",
                f"{stats['mean_planned_delay_s']:.1f}",
                _seconds(stats["mean_realized_delay_s"]),
                f"{stats['mean_deadline_miss_ratio']:.3f}",
                str(stats["total_repairs"]),
            ]
        )
    return _render(rows, header, fmt)


def render_cells_table(
    report: Dict[str, Any], fmt: str = "ascii"
) -> str:
    """The per-cell detail table of a ``repro-eval/1`` report."""
    timings = report.get("timings", {})
    header = (
        "cell",
        "delay (s)",
        "realized (s)",
        "miss ratio",
        "repairs",
        "conflicts",
        "deferred",
        "breakdowns",
        "degraded",
        "wall (s)",
    )
    rows = []
    for cell in report["cells"]:
        timing = timings.get(cell["cell"])
        rows.append(
            [
                cell["cell"],
                f"{cell['planned_delay_s']:.1f}",
                _seconds(cell["realized_mean_s"]),
                f"{cell['deadline_miss_ratio']:.3f}",
                str(cell["repairs"]),
                str(cell["conflicts"]),
                str(cell["deferred"]),
                str(cell["breakdowns"]),
                str(cell["degraded"]),
                f"{timing['wall_s']:.2f}" if timing else "-",
            ]
        )
    return _render(rows, header, fmt)
