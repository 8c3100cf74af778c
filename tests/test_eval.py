"""Unit tests for the head-to-head evaluation framework.

The parity-critical path (byte-identical reports across worker counts
and hash seeds, via the CLI in subprocesses) lives in
``tests/test_eval_parity.py``; this file covers the in-process
surface: matrix expansion, cell execution, report assembly, the
rendered tables, and serial-vs-pool equivalence.
"""

import json

import pytest

from repro.eval import (
    EVAL_FORMAT,
    EvalMatrix,
    build_cells,
    build_report,
    cell_parity_lines,
    default_matrix,
    execute_eval_cell,
    quick_matrix,
    render_cells_table,
    render_summary_table,
    report_to_json,
    resolve_planners,
    run_eval,
)
from repro.eval.matrix import EVAL_SCENARIOS, instance_seed
from repro.pipeline import planner_names
from repro.sim.faults.scenarios import scenario_names


class TestMatrix:
    def test_default_matrix_crosses_the_full_grid(self):
        matrix = default_matrix()
        cells = build_cells(matrix)
        expected = (
            len(matrix.sizes)
            * len(matrix.densities)
            * len(matrix.num_chargers)
            * len(matrix.scenarios)
            * len(planner_names(paper_only=False))
        )
        assert len(cells) == expected

    def test_quick_matrix_is_one_instance(self):
        matrix = quick_matrix()
        assert matrix.quick
        cells = build_cells(matrix)
        assert len(cells) == 3 * len(planner_names(paper_only=False))
        assert {c["scenario"] for c in cells} == set(EVAL_SCENARIOS)

    def test_resolve_planners_defaults_to_registry_order(self):
        assert resolve_planners(default_matrix()) == tuple(
            planner_names(paper_only=False)
        )
        pinned = EvalMatrix(planners=("Appro", "K-EDF"))
        assert resolve_planners(pinned) == ("Appro", "K-EDF")

    def test_cells_are_grouped_and_uniquely_named(self):
        cells = build_cells(default_matrix())
        names = [c["cell"] for c in cells]
        assert len(names) == len(set(names))
        by_group = {}
        for c in cells:
            by_group.setdefault(c["group"], []).append(c["planner"])
        roster = list(planner_names(paper_only=False))
        assert all(v == roster for v in by_group.values())

    def test_instance_seed_depends_on_size_and_density(self):
        matrix = default_matrix()
        seeds = {
            instance_seed(matrix, size, density)
            for size in (30, 60, 100)
            for density in (0.5, 1.0)
        }
        assert len(seeds) == 6

    def test_payloads_are_json_safe(self):
        for cell in build_cells(quick_matrix()):
            assert json.loads(json.dumps(cell)) == cell

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"trials": 0}, "trials"),
            ({"num_chargers": (2, 0)}, "num_chargers"),
            ({"sizes": (0,)}, "sizes"),
            ({"densities": (0.0,)}, "densities"),
            ({"densities": (1.5,)}, "densities"),
            ({"budget_factor": 0.0}, "budget_factor"),
            ({"scenarios": ("none", "meteor")}, "meteor"),
            ({"planners": ("Appro", "Oracle")}, "Oracle"),
            ({"planners": ("Appro", "AA", "Appro")}, "planners repeat"),
        ],
    )
    def test_invalid_matrix_rejected_before_any_cell_runs(
        self, monkeypatch, overrides, message
    ):
        import repro.eval.runner as runner_module

        def no_pool(*args, **kwargs):
            raise AssertionError("run_tasks must not be reached")

        monkeypatch.setattr(runner_module, "run_tasks", no_pool)
        with pytest.raises(ValueError, match=message):
            run_eval(EvalMatrix(**{"sizes": (20,), **overrides}))


class TestCellExecution:
    @pytest.fixture(scope="class")
    def quick_cells(self):
        return build_cells(quick_matrix())

    def test_cell_record_shape(self, quick_cells):
        record = execute_eval_cell(quick_cells[0])
        assert record["cell"] == quick_cells[0]["cell"]
        assert record["planner"] == "Appro"
        assert record["planned_delay_s"] > 0
        assert record["violations"] == 0
        assert 0.0 <= record["deadline_miss_ratio"] <= 1.0
        assert set(record["timing"]) == {"plan_s", "wall_s"}

    @pytest.mark.parametrize("scenario", scenario_names())
    def test_every_scenario_runs(self, scenario):
        (cell,) = build_cells(
            EvalMatrix(
                sizes=(20,), densities=(1.0,), num_chargers=(2,),
                scenarios=(scenario,), planners=("Appro",), trials=2,
            )
        )
        record = execute_eval_cell(cell)
        assert record["scenario"] == scenario
        assert record["violations"] == 0
        assert 0 <= record["breakdowns"] <= record["trials"]
        assert 0 <= record["degraded"] <= record["trials"]

    def test_overload_enlarges_the_request_set(self, quick_cells):
        baseline = next(
            c for c in quick_cells if c["scenario"] == "none"
        )
        overload = next(
            c for c in quick_cells if c["scenario"] == "overload"
        )
        assert (
            execute_eval_cell(overload)["requests"]
            > execute_eval_cell(baseline)["requests"]
        )


class TestDegradedTrials:
    """A degraded trial deferred sensors, so its realized delay is that
    of a smaller round: the realized metrics leave it out."""

    @staticmethod
    def _cell(k: int, planner: str = "K-EDF"):
        (cell,) = build_cells(
            EvalMatrix(
                sizes=(20,), densities=(1.0,), num_chargers=(k,),
                scenarios=("breakdown",), planners=(planner,), trials=3,
            )
        )
        return cell

    @pytest.mark.parametrize("planner", ["Appro", "K-EDF"])
    def test_every_trial_degraded_gives_null(self, planner):
        # K = 1: no surviving vehicle, so every breakdown degrades.
        record = execute_eval_cell(self._cell(1, planner))
        assert record["breakdowns"] == record["degraded"] == 3
        assert record["realized_mean_s"] is None
        assert record["realized_max_s"] is None

    def test_degraded_trials_are_left_out(self, monkeypatch):
        import repro.eval.worker as worker
        from repro.sim.faults.executor import FaultyOutcome

        delays = iter([100.0, 900.0, 300.0])
        degraded = iter([False, True, False])

        def fake(schedule, draw):
            return FaultyOutcome(
                planned_delay_s=1.0,
                realized_delay_s=next(delays),
                degraded=next(degraded),
            )

        monkeypatch.setattr(worker, "execute_with_faults", fake)
        record = execute_eval_cell(self._cell(2))
        assert record["degraded"] == 1
        assert record["realized_mean_s"] == 200.0
        assert record["realized_max_s"] == 300.0

    def test_summary_averages_only_cells_with_a_value(self):
        matrix = EvalMatrix(sizes=(20,), planners=("Appro",))
        records = [
            {
                "cell": f"c{i}", "group": f"g{i}", "planner": "Appro",
                "planned_delay_s": 10.0, "realized_mean_s": realized,
                "deadline_miss_ratio": 0.0, "repairs": 0,
                "violations": 0, "timing": {},
            }
            for i, realized in enumerate([None, 30.0, 50.0])
        ]
        report = build_report(matrix, records)
        assert report["planners"]["Appro"]["mean_realized_delay_s"] == 40.0
        records[1]["realized_mean_s"] = records[2]["realized_mean_s"] = None
        report = build_report(matrix, records)
        assert report["planners"]["Appro"]["mean_realized_delay_s"] is None
        assert " - " in render_summary_table(report)


class TestReport:
    @pytest.fixture(scope="class")
    def quick_report(self):
        return run_eval(quick_matrix())

    def test_envelope(self, quick_report):
        assert quick_report["format"] == EVAL_FORMAT
        assert quick_report["quick"] is True
        assert "timings" not in quick_report
        assert len(quick_report["cells"]) == 3 * len(
            planner_names(paper_only=False)
        )
        for cell in quick_report["cells"]:
            assert "timing" not in cell

    def test_planner_summary_and_win_rates(self, quick_report):
        planners = quick_report["planners"]
        assert set(planners) == set(planner_names(paper_only=False))
        appro = planners["Appro"]
        # Against itself Appro only ties: ties are not wins.
        assert appro["ties_vs_appro"] == appro["scored_vs_appro"]
        assert appro["wins_vs_appro"] == appro["losses_vs_appro"] == 0
        assert appro["win_rate_vs_appro"] == 0.0
        # The GA is seeded with Appro and only ever improves on it.
        assert planners["Metaheuristic"]["losses_vs_appro"] == 0
        for stats in planners.values():
            assert stats["scored_vs_appro"] == stats["cells"]
            assert stats["scored_vs_appro"] == (
                stats["wins_vs_appro"]
                + stats["ties_vs_appro"]
                + stats["losses_vs_appro"]
            )
            assert stats["win_rate_vs_appro"] == (
                stats["wins_vs_appro"] / stats["scored_vs_appro"]
            )
            assert stats["total_violations"] == 0

    def test_full_mode_keeps_timings_outside_cells(self):
        matrix = EvalMatrix(
            sizes=(20,),
            densities=(0.5,),
            num_chargers=(1,),
            scenarios=("none",),
            planners=("Appro",),
            trials=1,
        )
        report = run_eval(matrix)
        assert set(report["timings"]) == {
            c["cell"] for c in report["cells"]
        }
        assert report["timings"][report["cells"][0]["cell"]]["wall_s"] > 0

    def test_serial_and_pool_reports_are_byte_identical(self):
        serial = run_eval(quick_matrix())
        pooled = run_eval(quick_matrix(), workers=2)
        assert report_to_json(serial) == report_to_json(pooled)

    def test_faults_preset_identical_at_one_and_two_workers(self):
        matrix = EvalMatrix(
            sizes=(30,), densities=(1.0,), num_chargers=(3,),
            scenarios=("perfect-storm",),
            planners=tuple(planner_names(paper_only=True)), trials=4,
        )
        serial = run_eval(matrix)
        pooled = run_eval(matrix, workers=2)
        assert serial["cells"] == pooled["cells"]
        assert any(c["breakdowns"] for c in serial["cells"])

    def test_parity_lines_roundtrip(self, quick_report):
        lines = cell_parity_lines(quick_report)
        assert len(lines) == len(quick_report["cells"])
        assert [json.loads(line) for line in lines] == quick_report[
            "cells"
        ]

    def test_json_is_canonical(self, quick_report):
        text = report_to_json(quick_report)
        assert text.endswith("\n")
        assert json.loads(text) == quick_report
        assert report_to_json(json.loads(text)) == text


class TestTables:
    @pytest.fixture(scope="class")
    def quick_report(self):
        return run_eval(quick_matrix())

    def test_summary_table_lists_every_planner(self, quick_report):
        ascii_table = render_summary_table(quick_report)
        md_table = render_summary_table(quick_report, fmt="markdown")
        for name in planner_names(paper_only=False):
            assert name in ascii_table
            assert name in md_table
        assert md_table.splitlines()[1].startswith("|")

    def test_cells_table_dashes_wall_in_quick_mode(self, quick_report):
        table = render_cells_table(quick_report)
        assert table.splitlines()
        assert "-" in table.splitlines()[-1].split()[-1]

    def test_cells_table_shows_fault_counters(self, quick_report):
        header = render_cells_table(quick_report).splitlines()[0].split()
        for column in ("conflicts", "deferred", "breakdowns", "degraded"):
            assert column in header
