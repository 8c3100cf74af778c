"""The ``repro daemon`` subcommand: parser wiring and a stdio session."""

import io
import json
import os
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main
from repro.io import RESULT_FORMAT
from repro.network.topology import random_wrsn
from repro.serve import PlanJob, jobs_to_jsonl, request_status


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["daemon"])
        assert args.socket is None
        assert args.config is None
        assert args.workers is None
        assert args.queue is None
        assert args.degraded_planner is None

    def test_all_flags(self):
        args = build_parser().parse_args(
            ["daemon", "--socket", "/tmp/d.sock", "--workers", "4",
             "--timeout", "30", "--queue", "16", "--max-requests", "64",
             "--degraded-planner", "GreedyCover",
             "--config", "cfg.json"]
        )
        assert args.socket == "/tmp/d.sock"
        assert args.workers == 4
        assert args.timeout == 30.0
        assert args.queue == 16
        assert args.max_requests == 64
        assert args.degraded_planner == "GreedyCover"
        assert args.config == "cfg.json"


class TestStdioSession:
    def test_jobs_in_results_out(self, monkeypatch, capsys):
        net = random_wrsn(num_sensors=15, seed=6)
        ids = tuple(net.all_sensor_ids()[:8])
        payload = jobs_to_jsonl(
            [
                PlanJob(net, ids, 2, "Appro", "a"),
                PlanJob(net, ids, 1, "K-EDF", "b"),
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code = main(["daemon"])
        assert code == 0
        captured = capsys.readouterr()
        rows = [json.loads(x) for x in captured.out.splitlines()]
        assert [r["format"] for r in rows] == [RESULT_FORMAT] * 2
        assert [(r["id"], r["status"]) for r in rows] == [
            ("a", "ok"), ("b", "ok"),
        ]
        assert "2 response lines" in captured.err

    def test_config_file_applies(
        self, monkeypatch, capsys, tmp_path
    ):
        # An over-cap request set is rejected per the config file.
        config = tmp_path / "daemon.json"
        config.write_text(json.dumps({"max_requests": 2}))
        net = random_wrsn(num_sensors=15, seed=6)
        ids = tuple(net.all_sensor_ids()[:8])
        payload = jobs_to_jsonl([PlanJob(net, ids, 2, "Appro", "big")])
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code = main(["daemon", "--config", str(config)])
        assert code == 0
        rows = [
            json.loads(x)
            for x in capsys.readouterr().out.splitlines()
        ]
        assert rows[0]["status"] == "rejected"
        assert rows[0]["reason"] == "payload-too-large"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "raw",
        [{"workers": "2"}, {"timeout_s": "5"}, {"timeout_s": 0},
         {"degraded_planner": "Nope"}, {"breaker_failures": 0}],
    )
    def test_bad_config_file_exits_2(self, tmp_path, capsys, raw):
        config = tmp_path / "daemon.json"
        config.write_text(json.dumps(raw))
        assert main(["daemon", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_refused_reload_keeps_running_config(self, tmp_path):
        # A real daemon behind a socket: SIGHUP with a bad file is
        # refused and changes nothing; a good file then applies.
        config = tmp_path / "daemon.json"
        config.write_text(json.dumps({"max_queue": 5}))
        sock = str(tmp_path / "d.sock")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "daemon", "--socket", sock,
             "--config", str(config)],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(x) for x in proc.stderr], daemon=True
        )
        reader.start()

        def wait_for(prefix):
            while True:
                line = lines.get(timeout=30)
                if line.startswith(prefix):
                    return line

        try:
            wait_for("daemon listening")
            assert request_status(sock)["queue_capacity"] == 5
            config.write_text(
                json.dumps({"max_queue": 7, "breaker_failures": 0})
            )
            proc.send_signal(signal.SIGHUP)
            assert "breaker_failures" in wait_for("reload failed")
            assert request_status(sock)["queue_capacity"] == 5
            config.write_text(json.dumps({"max_queue": 7}))
            proc.send_signal(signal.SIGHUP)
            assert "max_queue: 5 -> 7" in wait_for("reload: max_queue")
            assert request_status(sock)["queue_capacity"] == 7
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
