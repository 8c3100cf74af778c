"""Tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.json"])
        assert args.command == "generate"
        assert args.num_sensors == 500
        assert not args.deplete

    def test_schedule_algorithm_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["schedule", "x.json", "-a", "NotAnAlg"]
            )

    def test_bench_figure_choices(self):
        args = build_parser().parse_args(["bench", "fig3"])
        assert args.figure == "fig3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig9"])

    def test_simulate_accepts_online(self):
        args = build_parser().parse_args(
            ["simulate", "-a", "Appro-Online"]
        )
        assert args.algorithm == "Appro-Online"


class TestCommands:
    def test_generate_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code = main(
            ["generate", str(out), "-n", "50", "--seed", "1", "--deplete"]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["sensors"]) == 50
        # All depleted below 20%.
        assert all(
            s["level_j"] < 0.2 * s["capacity_j"] for s in data["sensors"]
        )
        assert "wrote" in capsys.readouterr().out

    def test_schedule_roundtrip(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        sched_path = tmp_path / "sched.json"
        assert main(
            ["generate", str(net_path), "-n", "60", "--seed", "2",
             "--deplete"]
        ) == 0
        code = main(
            [
                "schedule", str(net_path), "-a", "Appro", "-k", "2",
                "--threshold", "1.0", "--validate",
                "-o", str(sched_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "longest delay" in out
        assert "violations     : 0" in out
        report = json.loads(sched_path.read_text())
        assert report["algorithm"] == "Appro"

    def test_schedule_no_requests(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        main(["generate", str(net_path), "-n", "20", "--seed", "3"])
        code = main(["schedule", str(net_path)])
        assert code == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_schedule_baseline_no_validator(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        main(
            ["generate", str(net_path), "-n", "30", "--seed", "4",
             "--deplete"]
        )
        code = main(
            ["schedule", str(net_path), "-a", "K-EDF",
             "--threshold", "1.0", "--validate"]
        )
        assert code == 0
        assert "n/a" in capsys.readouterr().out

    def test_simulate_runs(self, capsys):
        code = main(
            ["simulate", "-a", "K-EDF", "-n", "40", "-k", "1",
             "--days", "5", "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean longest tour duration" in out

    def test_simulate_online_runs(self, capsys):
        code = main(
            ["simulate", "-a", "Appro-Online", "-n", "40", "-k", "2",
             "--days", "5", "--seed", "6"]
        )
        assert code == 0
        assert "Appro-Online" in capsys.readouterr().out

    def test_compare_runs(self, capsys):
        code = main(["compare", "-n", "60", "-k", "2", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("Appro", "K-EDF", "NETWRAP", "AA", "K-minMax"):
            assert name in out

    def test_inspect_runs(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        main(
            ["generate", str(net_path), "-n", "80", "--seed", "8",
             "--deplete"]
        )
        code = main(["inspect", str(net_path), "-k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "load factor" in out
        assert "sojourn candidates" in out
        assert "mean disk occupancy" in out

    def test_inspect_threshold_filters(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        main(["generate", str(net_path), "-n", "40", "--seed", "9"])
        code = main(
            ["inspect", str(net_path), "--threshold", "0.2"]
        )
        assert code == 0
        assert "analysed request set    : 0" in capsys.readouterr().out

    def test_error_exit_code(self, tmp_path, capsys):
        code = main(["schedule", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFaults:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.command == "faults"
        assert args.scenario == "breakdown"
        assert args.num_sensors == 100
        assert args.num_chargers == 3
        assert args.trials == 100
        assert args.seed == 0
        assert args.algorithms is None

    def test_parser_scenario_choices(self):
        args = build_parser().parse_args(["faults", "perfect-storm"])
        assert args.scenario == "perfect-storm"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "not-a-scenario"])

    def test_parser_algorithm_choices(self):
        args = build_parser().parse_args(
            ["faults", "-a", "Appro", "K-EDF"]
        )
        assert args.algorithms == ["Appro", "K-EDF"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "-a", "NotAnAlg"])

    def test_campaign_runs(self, capsys):
        code = main(
            ["faults", "breakdown", "-n", "30", "-k", "2",
             "--trials", "3", "--seed", "1", "-a", "Appro", "K-EDF"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario=breakdown" in out
        assert "Appro" in out and "K-EDF" in out
        assert "realized constraint violations" in out

    def test_trials_flag(self, capsys):
        code = main(
            ["faults", "none", "-n", "25", "-k", "2", "-a", "Appro",
             "--trials", "2"]
        )
        assert code == 0
        assert "trials=2" in capsys.readouterr().out

    def test_zero_trials_is_a_usage_error(self, capsys):
        code = main(["faults", "none", "-n", "25", "--trials", "0"])
        assert code == 2
        assert "trials must be >= 1" in capsys.readouterr().err


def _stub_cell(violations=0, conflicts=0):
    return {
        "cell": "n20-d100-k2-breakdown-Appro",
        "group": "n20-d100-k2-breakdown",
        "planner": "Appro",
        "planned_delay_s": 100.0,
        "realized_mean_s": 120.0,
        "deadline_miss_ratio": 0.0,
        "repairs": 1,
        "conflicts": conflicts,
        "deferred": 0,
        "breakdowns": 1,
        "degraded": 0,
        "violations": violations,
    }


class TestCellGate:
    """``faults``, ``compare`` and ``eval`` fail a run whose cells carry
    plan violations or realized simultaneous charging."""

    @pytest.fixture
    def stub_report(self, monkeypatch):
        import repro.eval as eval_pkg

        cells = []

        def fake_run_eval(matrix, workers=1, progress=None):
            return {
                "cells": list(cells),
                "planners": {},
                "timings": {
                    c["cell"]: {"plan_s": 0.0, "wall_s": 0.0}
                    for c in cells
                },
            }

        monkeypatch.setattr(eval_pkg, "run_eval", fake_run_eval)
        return cells

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "-a", "Appro", "--trials", "1"],
            ["eval", "--quick"],
        ],
    )
    @pytest.mark.parametrize(
        "cell, code",
        [
            (_stub_cell(), 0),
            (_stub_cell(violations=1), 1),
            (_stub_cell(conflicts=2), 1),
        ],
    )
    def test_exit_code(self, stub_report, capsys, argv, cell, code):
        stub_report.append(cell)
        assert main(argv) == code
        if code:
            assert "FAIL" in capsys.readouterr().err


class TestLint:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"
        assert args.paths == ["src/repro"]
        assert args.format == "text"

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("unit-suffix", "float-eq", "seeded-rng",
                     "mutable-default", "import-layer", "api-drift",
                     "unordered-iteration", "wall-clock",
                     "pool-payload", "cache-mutation"):
            assert rule in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def f(capacity_j: float) -> float:\n"
                          "    return capacity_j\n")
        assert main(["lint", str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_nonzero_text(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("def f(x, acc=[]):\n    return x == 0.0\n")
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert "[mutable-default]" in out
        assert "[float-eq]" in out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("def f(x):\n    return x == 0.0\n")
        assert main(["lint", str(target), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == "repro-lint/1"
        assert report["summary"]["total"] == report["summary"][
            "errors"
        ] + report["summary"]["warnings"]
        payload = report["findings"]
        assert payload[0]["rule"] == "float-eq"
        assert payload[0]["path"].endswith("dirty.py")

    def test_json_envelope_on_clean_file(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def f(capacity_j: float) -> float:\n"
                          "    return capacity_j\n")
        assert main(["lint", str(target), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == "repro-lint/1"
        assert report["findings"] == []
        assert report["summary"] == {
            "total": 0, "errors": 0, "warnings": 0
        }

    def test_select_runs_only_named_rules(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("def f(x, acc=[]):\n    return x == 0.0\n")
        assert main(
            ["lint", str(target), "--select", "float-eq",
             "--format", "json"]
        ) == 1
        report = json.loads(capsys.readouterr().out)
        assert {item["rule"] for item in report["findings"]} == {
            "float-eq"
        }

    def test_pragma_suppresses_at_cli_level(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(
            "def f(x):\n"
            "    return x == 0.0  # repro-lint: disable=float-eq\n"
        )
        assert main(["lint", str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_pragma_on_multiline_statement(self, tmp_path, capsys):
        """A pragma on the closing line of a multi-line expression
        suppresses a finding anchored to its first line."""
        target = tmp_path / "dirty.py"
        target.write_text(
            "def f(x, y):\n"
            "    return (x\n"
            "            == y\n"
            "            == 0.0)  # repro-lint: disable=float-eq\n"
        )
        assert main(["lint", str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_repo_sources_are_clean(self, capsys):
        import repro

        src = Path(repro.__file__).resolve().parent
        assert main(["lint", str(src)]) == 0
