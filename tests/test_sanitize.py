"""Tests for the runtime determinism sanitizer (repro.serve.sanitize).

The centerpiece is the injected-bug round trip: a deliberately
order-dependent planner (iterating a *string* set — integer sets
iterate stably in CPython, string sets reorder with
``PYTHONHASHSEED``) must be caught by BOTH halves of the PR-6
contract — statically by lint rule R8 ``unordered-iteration`` and
dynamically by the subprocess perturbation matrix.
"""

import json
import textwrap

import pytest

from repro.io import schedule_to_dict
from repro.lint import lint_paths
from repro.pipeline import run_planner
from repro.serve import JobResult, load_jobs, save_jobs
from repro.serve.sanitize import (
    Divergence,
    SanitizeReport,
    build_corpus,
    first_divergence,
    quick_corpus,
    run_child,
    sanitize_corpus,
)

#: A planner whose visit order is a string-set iteration order. The
#: ``order = [...]`` comprehension is the injected bug.
BUGGY_PLUGIN_SOURCE = '''
"""Deliberately hash-order-dependent planner (sanitizer test fixture)."""

from repro.baselines.common import one_to_one_schedule
from repro.energy.charging import ChargerSpec
from repro.pipeline import PlannerInfo, register_planner


def buggy_schedule(network, request_ids, num_chargers, charger=None,
                   lifetimes=None, context=None, **kwargs):
    spec = charger if charger is not None else ChargerSpec()
    requests = sorted(set(request_ids))
    labels = {"s%d" % sid: sid for sid in requests}
    tags = {"s%d" % sid for sid in requests}
    order = [labels[name] for name in tags]  # BUG: set iteration order
    sequences = [order[k::num_chargers] for k in range(num_chargers)]
    return one_to_one_schedule(context, requests, spec, num_chargers, sequences)


register_planner(
    PlannerInfo(
        name="BuggySetOrder",
        build=buggy_schedule,
        multi_node=False,
        paper=False,
    )
)
'''


class TestCorpus:
    def test_default_corpus_meets_size_floor(self):
        jobs = build_corpus()
        assert len(jobs) >= 50
        # Deterministic ids, distinct per job.
        ids = [j.job_id for j in jobs]
        assert len(set(ids)) == len(ids)

    def test_corpus_is_seed_deterministic(self):
        a = build_corpus(num_networks=1, num_sensors=10)
        b = build_corpus(num_networks=1, num_sensors=10)
        assert [j.job_id for j in a] == [j.job_id for j in b]
        assert [j.request_ids for j in a] == [j.request_ids for j in b]

    def test_networks_are_shared_objects(self):
        jobs = build_corpus(num_networks=2, num_sensors=10)
        networks = {id(j.network) for j in jobs}
        assert len(networks) == 2

    def test_quick_corpus_is_small(self):
        jobs = quick_corpus()
        assert 0 < len(jobs) <= 15


class TestChild:
    def test_daemon_cell_matches_serial_run_planner(self, tmp_path):
        # Every matrix cell plans through the planning daemon; its
        # parity lines must equal a serial run_planner pass.
        jobs = quick_corpus()
        save_jobs(jobs, tmp_path / "corpus.jsonl")
        run_child(str(tmp_path / "corpus.jsonl"), 1,
                  str(tmp_path / "parity.jsonl"))
        expected = []
        for index, job in enumerate(load_jobs(tmp_path / "corpus.jsonl")):
            planned = run_planner(
                job.planner, job.network, job.request_ids,
                job.num_chargers,
            )
            expected.append(
                JobResult(
                    job_id=job.job_id,
                    index=index,
                    status="ok",
                    planner=job.planner,
                    num_chargers=job.num_chargers,
                    longest_delay_s=planned.longest_delay(),
                    schedule=schedule_to_dict(
                        planned, algorithm=job.planner
                    ),
                ).parity_key()
            )
        lines = (tmp_path / "parity.jsonl").read_text().splitlines()
        assert lines == expected


class TestFirstDivergence:
    def test_locates_field(self):
        base = (
            json.dumps({"job_id": "a", "longest_delay_s": 1.0}) + "\n"
            + json.dumps({"job_id": "b", "longest_delay_s": 2.0})
        )
        other = (
            json.dumps({"job_id": "a", "longest_delay_s": 1.0}) + "\n"
            + json.dumps({"job_id": "b", "longest_delay_s": 2.5})
        )
        d = first_divergence(base, other, hash_seed=1, workers=2)
        assert d.job_index == 1
        assert d.job_id == "b"
        assert d.field == "longest_delay_s"
        assert "PYTHONHASHSEED=1" in d.describe()

    def test_missing_line(self):
        base = json.dumps({"job_id": "a"}) + "\n" + json.dumps(
            {"job_id": "b"}
        )
        other = json.dumps({"job_id": "a"})
        d = first_divergence(base, other, hash_seed=0, workers=4)
        assert d.field == "missing-line"
        assert d.job_index == 1

    def test_report_round_trip(self):
        report = SanitizeReport(
            jobs=3, baseline_hash_seed=0, baseline_workers=1
        )
        report.divergences.append(
            Divergence(1, 2, 0, "job-0", "schedule")
        )
        doc = report.to_dict()
        assert doc["format"] == "repro-sanitize/1"
        assert doc["ok"] is False
        assert doc["divergences"][0]["field"] == "schedule"
        assert SanitizeReport(
            jobs=3, baseline_hash_seed=0, baseline_workers=1
        ).ok


class TestInjectedBug:
    """The same bug must trip the static rule AND the runtime harness."""

    def test_static_rule_catches_buggy_planner(self, tmp_path):
        path = tmp_path / "buggy_planner_plugin.py"
        path.write_text(BUGGY_PLUGIN_SOURCE)
        findings = lint_paths(
            [str(path)], select=["unordered-iteration"]
        )
        assert any(f.rule == "unordered-iteration" for f in findings)
        assert any("'tags'" in f.message for f in findings)

    @pytest.mark.slow
    def test_runtime_harness_catches_buggy_planner(self, tmp_path):
        plugin_dir = tmp_path / "plugins"
        plugin_dir.mkdir()
        (plugin_dir / "buggy_planner_plugin.py").write_text(
            BUGGY_PLUGIN_SOURCE
        )
        jobs = build_corpus(
            num_networks=1,
            num_sensors=16,
            planners=("BuggySetOrder",),
            charger_counts=(2,),
        )
        report = sanitize_corpus(
            jobs,
            hash_seeds=(0, 1),
            worker_counts=(1,),
            plugin="buggy_planner_plugin",
            extra_pythonpath=(str(plugin_dir),),
        )
        assert not report.ok
        d = report.divergences[0]
        assert d.hash_seed == 1
        # The leak surfaces in the scheduling output, not the metadata.
        assert d.field in ("schedule", "longest_delay_s")

    @pytest.mark.slow
    def test_clean_planners_pass_the_matrix(self, tmp_path):
        # Every cell runs the corpus through the planning daemon.
        jobs = build_corpus(
            num_networks=1,
            num_sensors=16,
            planners=("Appro", "K-EDF"),
            charger_counts=(1, 2),
        )
        report = sanitize_corpus(
            jobs, hash_seeds=(0, 1), worker_counts=(1, 2)
        )
        assert report.ok
        assert report.jobs == len(jobs)
        assert len(report.cells) == 4
        assert all(
            cell["lines"] == len(jobs) for cell in report.cells
        )

    @pytest.mark.slow
    def test_online_cells_warm_matches_cold(self, tmp_path):
        # The online-replanning sweep: a warm delta-invalidated replan
        # must be byte-identical to a cold context rebuild of the same
        # perturbed corpus, under both interpreter hash seeds.
        jobs = build_corpus(
            num_networks=1,
            num_sensors=16,
            planners=("Appro", "K-EDF"),
            charger_counts=(1, 2),
        )
        report = sanitize_corpus(
            jobs,
            hash_seeds=(0, 1),
            worker_counts=(1,),
            online_cells=True,
        )
        assert report.ok, [d.describe() for d in report.divergences]
        online = [c for c in report.cells if c.get("online")]
        assert len(online) == 4
        assert {c["online"] for c in online} == {"cold", "warm"}
        # One online baseline (the first cold cell), three compared.
        assert sum(1 for c in online if c["baseline"]) == 1
        assert all(
            cell["lines"] == len(jobs) for cell in report.cells
        )


def test_child_module_is_lint_clean_for_pool_rules():
    """The sanitizer's own module passes the determinism rules."""
    findings = lint_paths(
        ["src/repro/serve/sanitize.py"],
        select=[
            "unordered-iteration",
            "pool-payload",
            "cache-mutation",
        ],
    )
    assert findings == []
