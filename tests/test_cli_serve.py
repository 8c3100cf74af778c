"""The ``repro serve`` subcommand: JSONL in, JSONL out, exit codes."""

import json
import time

import pytest

from repro.cli.main import build_parser, main
from repro.io import JOB_FORMAT, RESULT_FORMAT, read_jsonl
from repro.network.topology import random_wrsn
from repro.pipeline import (
    PlannerInfo,
    register_planner,
    run_planner,
    unregister_planner,
)
from repro.serve import PlanJob, save_jobs


def _nap_planner(network, request_ids, num_chargers, **kwargs):
    time.sleep(0.5)
    return run_planner("K-EDF", network, request_ids, num_chargers).raw


@pytest.fixture
def nap_planner():
    register_planner(
        PlannerInfo(name="Nap", build=_nap_planner, multi_node=True,
                    paper=False)
    )
    yield
    unregister_planner("Nap")


@pytest.fixture
def jobs_file(tmp_path):
    net = random_wrsn(num_sensors=15, seed=6)
    ids = tuple(net.all_sensor_ids()[:8])
    save_jobs(
        [
            PlanJob(net, ids, 2, "Appro", "a"),
            PlanJob(net, ids, 1, "K-minMax", "b"),
        ],
        tmp_path / "jobs.jsonl",
    )
    return tmp_path / "jobs.jsonl"


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve", "jobs.jsonl"])
        assert args.workers == 1
        assert args.timeout is None
        assert args.output is None
        assert not args.demo

    def test_all_flags(self):
        args = build_parser().parse_args(
            ["serve", "j.jsonl", "-o", "r.jsonl", "--workers", "4",
             "--timeout", "30", "--demo"]
        )
        assert args.output == "r.jsonl"
        assert args.workers == 4
        assert args.timeout == 30.0
        assert args.demo

    @pytest.mark.parametrize(
        "flag", [["--retries", "1"], ["--backoff", "0.5"],
                 ["--no-shared-context"]],
    )
    def test_retry_and_cold_context_options_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "j.jsonl", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCmdServe:
    def test_stdout_results(self, jobs_file, capsys):
        code = main(["serve", str(jobs_file)])
        assert code == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["format"] for r in rows] == [RESULT_FORMAT] * 2
        assert [r["id"] for r in rows] == ["a", "b"]
        assert all(r["status"] == "ok" for r in rows)

    def test_output_file_and_workers(self, jobs_file, tmp_path):
        out = tmp_path / "results.jsonl"
        code = main(
            ["serve", str(jobs_file), "-o", str(out), "--workers", "2"]
        )
        assert code == 0
        rows = read_jsonl(out)
        assert len(rows) == 2
        assert rows[0]["schedule"]["format"] == "repro-schedule/2"

    def test_failed_job_sets_exit_code(self, jobs_file, tmp_path):
        rows = read_jsonl(jobs_file)
        rows[1]["planner"] = "NoSuchPlanner"
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            "".join(json.dumps(r) + "\n" for r in rows)
        )
        code = main(["serve", str(bad), "-o", str(tmp_path / "r.jsonl")])
        assert code == 1
        results = read_jsonl(tmp_path / "r.jsonl")
        assert results[0]["status"] == "ok"
        assert results[1]["status"] == "error"

    def test_malformed_lines_do_not_abort_the_stream(
        self, jobs_file, tmp_path, capsys
    ):
        # Damage the corpus: insert a broken-JSON line between the two
        # good jobs and append a wrong-format line. Every input line
        # must come back as exactly one result line, in input order.
        good = jobs_file.read_text().splitlines()
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(
            "\n".join(
                [good[0], '{"format": "repro-job/1", "bro',
                 good[1], '{"format": "nope"}']
            )
            + "\n"
        )
        code = main(["serve", str(mixed)])
        assert code == 1
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["format"] for r in rows] == [RESULT_FORMAT] * 4
        assert [r["id"] for r in rows] == ["a", "line-2", "b", "line-4"]
        assert [r["status"] for r in rows] == [
            "ok", "error", "ok", "error",
        ]
        assert "malformed JSON" in rows[1]["error"]
        assert "line 2" in captured.err
        assert "2 malformed input lines" in captured.err

    def test_stderr_names_each_bad_line_once(self, tmp_path, capsys):
        no_level = {
            "format": "repro-wrsn/1",
            "sensors": [{"id": 0, "x": 1, "y": 1, "capacity_j": 5}],
        }
        jobs = tmp_path / "bad.jsonl"
        jobs.write_text(
            json.dumps(
                {"format": JOB_FORMAT, "network": no_level, "requests": [0]}
            )
            + '\n{"format": "repro-job/1", "bro\n'
        )
        assert main(["serve", str(jobs)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert any(
            line.startswith("  job line 1: unusable network: ")
            for line in err
        )
        assert any(
            line.startswith("  job line 2: malformed JSON: ")
            for line in err
        )
        assert all(line.count("job line") <= 1 for line in err)
        assert not any(line.startswith("  line ") for line in err)

    def test_demo_generates_then_runs(self, tmp_path, capsys):
        jobs_path = tmp_path / "demo.jsonl"
        code = main(
            ["serve", str(jobs_path), "--demo",
             "-o", str(tmp_path / "r.jsonl")]
        )
        assert code == 0
        jobs = read_jsonl(jobs_path)
        assert all(j["format"] == JOB_FORMAT for j in jobs)
        results = read_jsonl(tmp_path / "r.jsonl")
        assert len(results) == len(jobs)
        assert all(r["status"] == "ok" for r in results)

    def test_batch_above_default_queue_is_fully_planned(
        self, tmp_path, nap_planner
    ):
        # 70 distinct jobs, more than the daemon's default queue of 64.
        # The first naps while the rest are submitted, so the queue
        # really holds 69 entries: serve must size it to the batch.
        net = random_wrsn(num_sensors=15, seed=6)
        ids = tuple(net.all_sensor_ids())
        jobs = [PlanJob(net, ids, 1, "Nap", "nap")] + [
            PlanJob(net, ids[:size], k, "K-EDF", f"s{size}-k{k}")
            for size in range(6, 16)
            for k in range(1, 8)
        ][:69]
        save_jobs(jobs, tmp_path / "big.jsonl")
        out = tmp_path / "r.jsonl"
        code = main(["serve", str(tmp_path / "big.jsonl"), "-o", str(out)])
        assert code == 0
        rows = read_jsonl(out)
        assert len(rows) == 70
        assert all(r["status"] == "ok" for r in rows)
        assert [r["id"] for r in rows] == [j.job_id for j in jobs]

    def test_identical_lines_each_get_a_record(self, jobs_file, tmp_path):
        lines = jobs_file.read_text().splitlines()
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_text("\n".join([lines[0], lines[0], lines[1]]) + "\n")
        out = tmp_path / "r.jsonl"
        assert main(["serve", str(doubled), "-o", str(out)]) == 0
        rows = read_jsonl(out)
        assert [r["id"] for r in rows] == ["a", "a", "b"]
        assert rows[0]["schedule"] == rows[1]["schedule"]
        assert [r["index"] for r in rows] == [0, 1, 2]

    def test_oversized_fleet_is_rejected(self, jobs_file, tmp_path):
        rows = read_jsonl(jobs_file)
        rows[1]["num_chargers"] = 10**9
        bad = tmp_path / "huge.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "r.jsonl"
        assert main(["serve", str(bad), "-o", str(out)]) == 1
        results = read_jsonl(out)
        assert results[0]["status"] == "ok"
        assert results[1]["status"] == "rejected"
        assert results[1]["reason"] == "payload-too-large"

    @pytest.mark.parametrize("timeout", ["0", "-1"])
    def test_nonpositive_timeout_exits_2(self, jobs_file, timeout, capsys):
        assert main(["serve", str(jobs_file), "--timeout", timeout]) == 2
        assert "timeout_s must be a positive number" in (
            capsys.readouterr().err
        )
