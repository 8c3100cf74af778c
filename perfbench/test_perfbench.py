"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They check that ``BENCHMARK.json``, ``spec.json`` and the names the
benchmark prints agree, and pin the pieces the correctness gates rest
on (the stage decomposition's parity, the daemon corpus mix, spans).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
E2E = [m["name"] for m in BENCHMARK["end_to_end"]]
LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def test_benchmark_file_shape():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + E2E + LAYER
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])
    assert set(WORKLOADS) == set(workloads.WORKLOADS)


def test_spec_names_match_benchmark():
    assert list(SPEC["end_to_end"]) == E2E
    for meanings in SPEC["end_to_end"].values():
        assert list(meanings) == WORKLOADS
    assert list(SPEC["per_layer"]) == LAYER
    for row in SPEC["interactions"]:
        assert set(row["layer"]) <= set(LAYER)
        assert set(row["moves"]) <= set(E2E)
        assert row["on"] in WORKLOADS


def test_code_produces_every_layer_name():
    produced = set(spans.stage_metrics(spans.Tracer("t"), 0, 0.0))
    produced |= set(workloads.LAYER_DEFAULTS) | {"bench.trace_overhead_ratio"}
    assert produced == set(LAYER)


def test_self_time_subtracts_children():
    tracer = spans.Tracer("t")
    tracer.spans = [
        (0, None, "outer", 0.0, 10.0, 1),
        (1, 0, "inner", 1.0, 4.0, 1),
        (2, 0, "inner", 5.0, 6.0, 1),
    ]
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}


def test_traced_stages_match_run_planner():
    from repro.bench.workloads import PaperParams, make_instance
    from repro.pipeline import run_planner

    params = PaperParams(num_sensors=300)
    network = make_instance(params, 3)
    requests = network.all_sensor_ids()
    expected = workloads.schedule_bytes(
        run_planner("Appro", network.copy(), requests, 2, charger=params.charger())
    )
    tracer = spans.Tracer("t")
    undo = spans.instrument(tracer)
    try:
        planned, violations = workloads.traced_appro(
            tracer, network.copy(), requests, 2, params.charger()
        )
    finally:
        undo()
    assert violations == 0
    assert workloads.schedule_bytes(planned) == expected
    names = {span[2] for span in tracer.spans}
    assert set(spans.STAGE_SPANS.values()) - {"pipeline.invalidate"} <= names


def test_instrument_undo_restores_originals():
    from repro.pipeline.context import PlanningContext

    before = dict(vars(PlanningContext))
    spans.instrument(spans.Tracer("t"))()
    assert dict(vars(PlanningContext)) == before


def test_daemon_corpus_mix_is_seed_independent():
    block = len(workloads.DAEMON_FRACTIONS) * len(workloads.DAEMON_CHARGERS)
    _, first = workloads.daemon_corpus(1, 2 * block)
    _, second = workloads.daemon_corpus(2, 2 * block)

    def mix(corpus):
        return [(len(j.request_ids), j.num_chargers) for j in corpus]

    assert sorted(mix(first[:block])) == sorted(
        (round(f * workloads.DAEMON_SENSORS), k)
        for f in workloads.DAEMON_FRACTIONS
        for k in workloads.DAEMON_CHARGERS
    )
    assert sorted(mix(first)) == sorted(mix(second))
    assert mix(first) != mix(second)
    keys = [
        (i % workloads.DAEMON_NETWORKS, j.request_ids)
        for i, j in enumerate(first)
    ]
    assert len(set(keys)) == len(keys)
    # Residuals drift between two jobs on the same network.
    a, b = first[0].network, first[workloads.DAEMON_NETWORKS].network
    assert any(
        a.sensor(s).residual_j != b.sensor(s).residual_j
        for s in a.all_sensor_ids()
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_match_benchmark(trace, tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", "daemon-stream",
            "--seed", "0",
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-year",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
