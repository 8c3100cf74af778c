"""Tests for :mod:`repro.bench.campaign` and ``repro bench -o`` (micro
scale)."""

import json

import pytest

from repro.bench.campaign import (
    render_figure,
    render_markdown_report,
    write_campaign,
)
from repro.bench.runner import FIGURES, ExperimentResult, run_figure
from repro.cli.main import main


def micro_results():
    """Hand-built figure results (no simulation)."""
    result = ExperimentResult(name="fig3", x_label="n", instances=1)
    result.x_values = [10, 20]
    result.mean_longest_delay_h = {
        "Appro": [1.0, 2.0], "AA": [2.0, 5.0],
    }
    result.avg_dead_min = {"Appro": [0.0, 1.0], "AA": [0.0, 9.0]}
    return {"fig3": result}


class TestRunCampaign:
    def test_one_figure_run(self, capsys):
        code = main(
            ["bench", "fig5", "--instances", "1", "--days", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert FIGURES["fig5"].title in out
        assert "  .. " in out  # progress was reported
        assert "report :" not in out  # no --output-dir, no files

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_figures_registry_complete(self):
        assert set(FIGURES) == {"fig3", "fig4", "fig5"}


class TestReportRendering:
    def test_markdown_contains_tables_and_plots(self):
        text = render_markdown_report(micro_results(), 2.0, 1.5)
        assert "# WRSN multi-charger evaluation report" in text
        assert "Fig. 3" in text
        assert "average longest tour duration" in text
        assert "legend:" in text  # the ASCII plot
        assert "Appro improvement over the best baseline" in text
        assert (
            "`python -m repro bench fig3 --instances 1 --days 2 -o DIR`"
            in text
        )

    def test_markdown_sections_are_the_console_blocks(self):
        results = micro_results()
        text = render_markdown_report(results, 2.0, 1.5)
        assert render_figure("fig3", results["fig3"], plot=True) in text

    def test_write_campaign(self, tmp_path):
        paths = write_campaign(
            micro_results(), tmp_path, horizon_days=2.0,
            wall_clock_s=1.5, stem="eval",
        )
        assert paths["report"].exists()
        assert paths["results"].exists()
        data = json.loads(paths["results"].read_text())
        assert data["instances"] == 1
        assert data["horizon_days"] == 2.0
        assert "fig3" in data["figures"]
        assert data["figures"]["fig3"]["x_values"] == [10, 20]


class TestCliReport:
    def test_report_command(self, tmp_path, capsys):
        code = main(
            [
                "bench", "fig5", "-o", str(tmp_path), "--instances", "1",
                "--days", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "report :" in out
        assert (tmp_path / "evaluation.md").exists()
        data = json.loads((tmp_path / "evaluation.json").read_text())
        assert list(data["figures"]) == ["fig5"]
