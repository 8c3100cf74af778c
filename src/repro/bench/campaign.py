"""Full evaluation campaigns: run every figure, write one report.

A *campaign* runs the complete evaluation section — all three sweeps,
both metrics each — at a chosen scale, and renders a single Markdown
report with tables, ASCII plots, the Appro-vs-best-baseline improvement
statistics, and the exact configuration needed to rerun it. Results
are also saved as JSON for downstream analysis.

Used by ``python -m repro report`` and by users producing
paper-vs-reproduction writeups.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.bench.ascii_plot import plot_experiment
from repro.bench.reporting import (
    format_series_table,
    improvement_over_best_baseline,
)
from repro.bench.runner import FIGURES, ExperimentResult, run_figure


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    instances: int
    horizon_days: float
    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def to_json_dict(self) -> Dict:
        out: Dict = {
            "instances": self.instances,
            "horizon_days": self.horizon_days,
            "wall_clock_s": self.wall_clock_s,
            "figures": {},
        }
        for key, result in self.results.items():
            out["figures"][key] = {
                "x_label": result.x_label,
                "x_values": result.x_values,
                "mean_longest_delay_h": result.mean_longest_delay_h,
                "avg_dead_min": result.avg_dead_min,
            }
        return out


def run_campaign(
    instances: int = 2,
    horizon_days: float = 40.0,
    figures: Sequence[str] = ("fig3", "fig4", "fig5"),
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
) -> CampaignResult:
    """Run the selected figures at the given scale.

    ``workers > 1`` fans the simulation cells of each figure out over
    the worker pool (:func:`repro.serve.pool.run_tasks`); results are
    identical to a serial run.

    Raises:
        KeyError: on an unknown figure key.
    """
    campaign = CampaignResult(
        instances=instances, horizon_days=horizon_days
    )
    start = time.perf_counter()
    for key in figures:
        campaign.results[key] = run_figure(
            key,
            instances=instances,
            horizon_s=horizon_days * 86400.0,
            progress=progress,
            workers=workers,
        )
    campaign.wall_clock_s = time.perf_counter() - start
    return campaign


def render_markdown_report(campaign: CampaignResult) -> str:
    """One self-contained Markdown document for a campaign."""
    lines: List[str] = []
    lines.append("# WRSN multi-charger evaluation report")
    lines.append("")
    lines.append(
        f"Scale: **{campaign.instances} instances/point**, "
        f"**{campaign.horizon_days:g}-day horizon** "
        f"(paper scale: 100 instances, 365 days). "
        f"Wall clock: {campaign.wall_clock_s:.0f} s."
    )
    lines.append("")
    lines.append(
        "Rerun with: "
        f"`python -m repro report --instances {campaign.instances} "
        f"--days {campaign.horizon_days:g}`"
    )
    for key, result in campaign.results.items():
        lines.append("")
        lines.append(f"## {FIGURES[key].title}")
        lines.append("")
        lines.append("```")
        lines.append(format_series_table(
            result, "longest_delay_h",
            "(a) average longest tour duration", "hours",
        ))
        lines.append("")
        lines.append(format_series_table(
            result, "dead_min",
            "(b) average dead duration per sensor", "minutes",
        ))
        lines.append("```")
        gains = improvement_over_best_baseline(result, "longest_delay_h")
        pretty = ", ".join(
            f"{x:g}: {g:+.0%}"
            for x, g in zip(result.x_values, gains)
        )
        lines.append("")
        lines.append(
            f"Appro delay improvement over the best baseline — {pretty}."
        )
        lines.append("")
        lines.append("```")
        lines.append(plot_experiment(
            result, "longest_delay_h", "(a) longest tour duration", "h",
            width=56, height=14,
        ))
        lines.append("```")
    lines.append("")
    return "\n".join(lines)


def write_campaign(
    campaign: CampaignResult,
    output_dir: Union[str, Path],
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
    report_path.write_text(render_markdown_report(campaign))
    json_path.write_text(json.dumps(campaign.to_json_dict(), indent=2))
    return {"report": report_path, "results": json_path}
