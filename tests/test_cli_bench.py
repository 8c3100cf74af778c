"""Tests for the CLI ``bench`` command with a stubbed figure runner
(the real sweeps are exercised by the benchmark suite)."""

import pytest

from repro.bench.runner import ExperimentResult
from repro.cli import commands
from repro.cli.main import main


def fake_result():
    result = ExperimentResult(name="fig3", x_label="n", instances=1)
    result.x_values = [200, 400]
    result.mean_longest_delay_h = {
        "Appro": [1.0, 2.0],
        "AA": [3.0, 6.0],
    }
    result.avg_dead_min = {"Appro": [0.0, 1.0], "AA": [5.0, 50.0]}
    return result


@pytest.fixture
def stubbed_figures(monkeypatch):
    calls = {}

    def fake_run_figure(
        key, instances, horizon_s, progress=None, workers=1
    ):
        calls["key"] = key
        calls["instances"] = instances
        calls["horizon_s"] = horizon_s
        calls["workers"] = workers
        if progress:
            progress("stub progress line")
        return fake_result()

    monkeypatch.setattr(commands, "run_figure", fake_run_figure)
    return calls


class TestCmdBench:
    def test_tables_printed(self, stubbed_figures, capsys):
        code = main(["bench", "fig3", "--instances", "1", "--days", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "longest tour duration" in out
        assert "avg dead duration per sensor" in out
        assert "Appro improvement over the best baseline" in out
        assert "stub progress line" in out

    def test_scale_arguments_forwarded(self, stubbed_figures, capsys):
        main(["bench", "fig3", "--instances", "3", "--days", "7"])
        assert stubbed_figures["key"] == "fig3"
        assert stubbed_figures["instances"] == 3
        assert stubbed_figures["horizon_s"] == pytest.approx(7 * 86400.0)

    def test_plot_flag(self, stubbed_figures, capsys):
        code = main(["bench", "fig3", "--plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "legend:" in out  # the ASCII plot footer

    def test_improvement_statistic_correct(self, stubbed_figures, capsys):
        main(["bench", "fig3"])
        out = capsys.readouterr().out
        # Appro 1.0 vs AA 3.0 -> 67% shorter at the first point.
        assert "67%" in out

    @pytest.mark.parametrize(
        "option", [["--json", "x.json"], ["--seed", "1"], ["--repeats", "3"]]
    )
    def test_removed_options_are_usage_errors(
        self, stubbed_figures, option, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "fig3", *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert "key" not in stubbed_figures  # nothing ran
        assert list(tmp_path.iterdir()) == []  # nothing written

    def test_figure_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
