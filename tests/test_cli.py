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
        """``plan -p`` offers every registered planner."""
        args = build_parser().parse_args(["plan", "-p", "GreedyCover"])
        assert args.planner == "GreedyCover"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "-p", "NotAnAlg"])

    def test_plan_instance_excludes_num_sensors(self):
        args = build_parser().parse_args(["plan", "--instance", "x.json"])
        assert args.instance == "x.json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["plan", "--instance", "x.json", "-n", "40"]
            )

    @pytest.mark.parametrize(
        "command", ["schedule", "compare", "faults", "report"]
    )
    def test_removed_commands_are_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_bench_figure_choices(self):
        args = build_parser().parse_args(["bench", "fig3"])
        assert args.figures == ["fig3"]
        args = build_parser().parse_args(["bench", "fig3", "fig5"])
        assert args.figures == ["fig3", "fig5"]
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
        """A stored instance planned and its schedule saved as JSON."""
        net_path = tmp_path / "net.json"
        sched_path = tmp_path / "sched.json"
        assert main(
            ["generate", str(net_path), "-n", "60", "--seed", "2",
             "--deplete"]
        ) == 0
        code = main(
            [
                "plan", "--instance", str(net_path), "-p", "Appro",
                "-k", "2", "--threshold", "1.0", "-o", str(sched_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "longest delay" in out
        assert "violations     : 0" in out
        report = json.loads(sched_path.read_text())
        assert report["algorithm"] == "Appro"

    @pytest.mark.parametrize("planner", ["Appro", "K-EDF"])
    def test_plan_instance_matches_generated_field(
        self, tmp_path, capsys, planner
    ):
        """``plan --instance`` on a ``generate --deplete`` file prints
        the report ``plan -n/--seed`` prints for the same field."""
        net_path = tmp_path / "net.json"
        main(["generate", str(net_path), "-n", "40", "--seed", "3",
              "--deplete"])
        capsys.readouterr()

        def report(argv):
            assert main(["plan", "-p", planner, *argv]) == 0
            lines = capsys.readouterr().out.splitlines()
            return [ln for ln in lines if not ln.startswith("solved in")]

        stored = report(["--instance", str(net_path)])
        generated = report(["-n", "40", "--seed", "3"])
        assert stored == generated
        assert f"planner        : {planner}" in stored

    def test_schedule_no_requests(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        main(["generate", str(net_path), "-n", "20", "--seed", "3"])
        code = main(["plan", "--instance", str(net_path)])
        assert code == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_plan_validates_baselines(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        main(
            ["generate", str(net_path), "-n", "30", "--seed", "4",
             "--deplete"]
        )
        code = main(
            ["plan", "--instance", str(net_path), "-p", "K-EDF",
             "--threshold", "1.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "multi-node     : False" in out
        assert "violations     : 0" in out

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
        """The paper's five on one all-requesting batch, no faults."""
        code = main(
            ["eval", "-n", "60", "-k", "2", "--seed", "7",
             "--densities", "1.0", "--scenarios", "none", "--trials", "1",
             "-p", "Appro", "K-EDF", "NETWRAP", "AA", "K-minMax"]
        )
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
        code = main(["plan", "--instance", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def _network_doc(**fields):
    """A valid ``repro-wrsn/1`` document with ``fields`` overridden."""
    from repro.io import wrsn_to_dict
    from repro.network.topology import random_wrsn

    doc = wrsn_to_dict(random_wrsn(num_sensors=5, seed=2))
    doc.update(fields)
    return doc


#: (network document, the field its error message must name).
MALFORMED_NETWORKS = {
    "missing-level": (
        {
            "format": "repro-wrsn/1",
            "sensors": [{"id": 0, "x": 1, "y": 1, "capacity_j": 5}],
        },
        "sensors[0].level_j",
    ),
    "sensors-not-a-list": (_network_doc(sensors=5), "sensors"),
    "null-base-station": (_network_doc(base_station=None), "base_station"),
    "string-coordinate": (
        _network_doc(
            sensors=[
                {"id": 0, "x": "1", "y": 1, "capacity_j": 5.0,
                 "level_j": 1.0, "data_rate_bps": 1000.0}
            ]
        ),
        "sensors[0].x",
    ),
}


class TestMalformedNetwork:
    """A malformed network file is a usage error naming the field, at
    both front doors that read one: ``plan --instance`` and ``serve``."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_NETWORKS))
    def test_plan_instance(self, case, tmp_path, capsys):
        doc, field = MALFORMED_NETWORKS[case]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"network field {field} " in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_NETWORKS))
    def test_serve_line(self, case, tmp_path, capsys):
        doc, field = MALFORMED_NETWORKS[case]
        jobs = tmp_path / "jobs.jsonl"
        record = {"format": "repro-job/1", "network": doc, "requests": [0]}
        jobs.write_text(json.dumps(record) + "\n")
        assert main(["serve", str(jobs)]) == 1
        out = capsys.readouterr().out
        (row,) = [json.loads(line) for line in out.splitlines()]
        assert row["status"] == "error"
        assert row["error"].startswith("job line 1: unusable network: ")
        assert f"network field {field} " in row["error"]


class TestFaults:
    """Planners under identical seeded fault draws: ``eval`` with its
    axis flags narrowed to one group."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["eval"])
        assert args.command == "eval"
        for axis in ("sizes", "densities", "num_chargers", "scenarios",
                     "planners", "trials"):
            assert getattr(args, axis) is None
        assert args.seed == 0
        assert not args.quick

    def test_parser_scenario_choices(self):
        args = build_parser().parse_args(
            ["eval", "--scenarios", "perfect-storm"]
        )
        assert args.scenarios == ["perfect-storm"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["eval", "--scenarios", "not-a-scenario"]
            )

    def test_parser_algorithm_choices(self):
        args = build_parser().parse_args(
            ["eval", "-p", "Appro", "K-EDF"]
        )
        assert args.planners == ["Appro", "K-EDF"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["eval", "-p", "NotAnAlg"])

    def test_axis_flags_make_one_group(self, monkeypatch):
        from dataclasses import replace

        import repro.eval as eval_pkg
        from repro.eval import build_cells, quick_matrix

        seen = []

        def fake_run_eval(matrix, workers=1, progress=None):
            seen.append(matrix)
            return {"cells": [], "planners": {}, "timings": {}}

        monkeypatch.setattr(eval_pkg, "run_eval", fake_run_eval)
        assert main(
            ["eval", "--quick", "-n", "40", "-k", "3", "--densities",
             "1.0", "--scenarios", "breakdown", "-p", "Appro", "AA",
             "--trials", "5"]
        ) == 0
        (matrix,) = seen
        assert matrix == replace(
            quick_matrix(), sizes=(40,), densities=(1.0,),
            num_chargers=(3,), scenarios=("breakdown",),
            planners=("Appro", "AA"), trials=5,
        )
        cells = build_cells(matrix)
        assert {c["group"] for c in cells} == {"n40-d100-k3-breakdown"}
        assert [c["planner"] for c in cells] == ["Appro", "AA"]

    def test_campaign_runs(self, capsys):
        code = main(
            ["eval", "-n", "30", "-k", "2", "--densities", "1.0",
             "--scenarios", "breakdown", "--trials", "3", "--seed", "1",
             "-p", "Appro", "K-EDF", "--cells"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n30-d100-k2-breakdown-Appro" in out
        assert "n30-d100-k2-breakdown-K-EDF" in out
        assert "conflicts" in out

    def test_trials_flag(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["eval", "-n", "25", "-k", "2", "-p", "Appro",
             "--scenarios", "none", "--trials", "2", "-o", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["matrix"]["trials"] == 2
        assert {c["trials"] for c in report["cells"]} == {2}

    def test_zero_trials_is_a_usage_error(self, capsys):
        code = main(["eval", "-n", "25", "--trials", "0"])
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
    """``eval`` fails a run whose cells carry plan violations or
    realized simultaneous charging, whether one group or a matrix."""

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
            ["eval", "-n", "20", "--scenarios", "breakdown", "-p",
             "Appro", "--trials", "1"],
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
