"""Figure rendering and the evaluation report.

:func:`render_figure` is the one per-figure renderer: both paper
metrics as tables, the Appro-vs-best-baseline improvement per sweep
point and, optionally, ASCII plots. ``repro bench`` prints it for each
figure it runs; with ``--output-dir`` it also writes the figures as
one Markdown report (:func:`render_markdown_report`, the same blocks
under a heading each, plus the exact command to rerun it) and as JSON
for downstream analysis (:func:`write_campaign`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Union

from repro.bench.ascii_plot import plot_experiment
from repro.bench.reporting import (
    format_series_table,
    improvement_over_best_baseline,
)
from repro.bench.runner import FIGURES, ExperimentResult


def render_figure(key: str, result: ExperimentResult, plot: bool) -> str:
    """Both metric tables and the improvement line of one figure;
    ``plot`` appends an ASCII plot per metric."""
    title = FIGURES[key].title
    gains = improvement_over_best_baseline(result, "longest_delay_h")
    blocks = [
        format_series_table(
            result, "longest_delay_h",
            f"{title} — average longest tour duration", "hours",
        ),
        format_series_table(
            result, "dead_min",
            f"{title} — avg dead duration per sensor", "minutes",
        ),
        "Appro improvement over the best baseline per point: "
        + ", ".join(
            f"{x:g}: {g:.0%}" for x, g in zip(result.x_values, gains)
        ),
    ]
    if plot:
        blocks.append(plot_experiment(
            result, "longest_delay_h", f"{title} — longest tour duration",
            "h",
        ))
        blocks.append(plot_experiment(
            result, "dead_min", f"{title} — dead duration", "min",
        ))
    return "\n\n".join(blocks)


def render_markdown_report(
    results: Mapping[str, ExperimentResult],
    horizon_days: float,
    wall_clock_s: float,
) -> str:
    """One self-contained Markdown document for a set of figures."""
    instances = max(result.instances for result in results.values())
    lines = [
        "# WRSN multi-charger evaluation report",
        "",
        f"Scale: **{instances} instances/point**, "
        f"**{horizon_days:g}-day horizon** "
        f"(paper scale: 100 instances, 365 days). "
        f"Wall clock: {wall_clock_s:.0f} s.",
        "",
        "Rerun with: "
        f"`python -m repro bench {' '.join(results)} --instances "
        f"{instances} --days {horizon_days:g} -o DIR`",
    ]
    for key, result in results.items():
        lines += [
            "",
            f"## {FIGURES[key].title}",
            "",
            "```",
            render_figure(key, result, plot=True),
            "```",
        ]
    lines.append("")
    return "\n".join(lines)


def write_campaign(
    results: Mapping[str, ExperimentResult],
    output_dir: Union[str, Path],
    horizon_days: float,
    wall_clock_s: float,
    stem: str = "evaluation",
) -> Dict[str, Path]:
    """Write the Markdown report and the JSON results.

    Returns:
        ``{"report": <md path>, "results": <json path>}``.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / f"{stem}.md"
    json_path = out / f"{stem}.json"
    report_path.write_text(
        render_markdown_report(results, horizon_days, wall_clock_s)
    )
    figures = {
        key: {
            "x_label": result.x_label,
            "x_values": result.x_values,
            "mean_longest_delay_h": result.mean_longest_delay_h,
            "avg_dead_min": result.avg_dead_min,
        }
        for key, result in results.items()
    }
    json_path.write_text(json.dumps(
        {
            "instances": max(r.instances for r in results.values()),
            "horizon_days": horizon_days,
            "wall_clock_s": wall_clock_s,
            "figures": figures,
        },
        indent=2,
    ))
    return {"report": report_path, "results": json_path}
