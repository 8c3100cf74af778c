"""Tests for :mod:`repro.bench.campaign` (micro scale)."""

import json

import pytest

from repro.bench.campaign import (
    CampaignResult,
    render_markdown_report,
    run_campaign,
    write_campaign,
)
from repro.bench.runner import FIGURES, ExperimentResult


def micro_campaign():
    """A hand-built campaign result (no simulation)."""
    campaign = CampaignResult(instances=1, horizon_days=2.0)
    result = ExperimentResult(name="fig3", x_label="n", instances=1)
    result.x_values = [10, 20]
    result.mean_longest_delay_h = {
        "Appro": [1.0, 2.0], "AA": [2.0, 5.0],
    }
    result.avg_dead_min = {"Appro": [0.0, 1.0], "AA": [0.0, 9.0]}
    campaign.results["fig3"] = result
    campaign.wall_clock_s = 1.5
    return campaign


class TestRunCampaign:
    def test_micro_run(self):
        lines = []
        campaign = run_campaign(
            instances=1, horizon_days=2.0, figures=("fig5",),
            progress=lines.append,
        )
        assert "fig5" in campaign.results
        assert campaign.results["fig5"].x_values == [1, 2, 3, 4, 5]
        assert campaign.wall_clock_s > 0
        assert lines  # progress was reported

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            run_campaign(figures=("fig99",))

    def test_figures_registry_complete(self):
        assert set(FIGURES) == {"fig3", "fig4", "fig5"}


class TestReportRendering:
    def test_markdown_contains_tables_and_plots(self):
        text = render_markdown_report(micro_campaign())
        assert "# WRSN multi-charger evaluation report" in text
        assert "Fig. 3" in text
        assert "average longest tour duration" in text
        assert "legend:" in text  # the ASCII plot
        assert "Appro delay improvement" in text

    def test_write_campaign(self, tmp_path):
        paths = write_campaign(micro_campaign(), tmp_path, stem="eval")
        assert paths["report"].exists()
        assert paths["results"].exists()
        data = json.loads(paths["results"].read_text())
        assert data["instances"] == 1
        assert "fig3" in data["figures"]
        assert data["figures"]["fig3"]["x_values"] == [10, 20]


class TestCliReport:
    def test_report_command(self, tmp_path, capsys):
        from repro.cli.main import main

        # Micro scale: fig5 only would still be slow at n=1000; use
        # fig3 with the small default? All real figures are heavy, so
        # only check the wiring with the smallest one at 1 day.
        code = main(
            [
                "report", "-o", str(tmp_path), "--instances", "1",
                "--days", "1", "--figures", "fig5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "report :" in out
        assert (tmp_path / "evaluation.md").exists()
