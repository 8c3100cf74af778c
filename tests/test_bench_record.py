"""The repro-bench/1 record schema (src/repro/bench/record.py)."""

import json

import pytest

from repro.bench import (
    BENCH_FORMAT,
    bench_record,
    median_of,
    summarize_samples,
    write_bench_record,
)


class TestSummarizeSamples:
    def test_median_min_max(self):
        summary = summarize_samples([3.0, 1.0, 2.0])
        assert summary["median"] == 2.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["samples"] == [3.0, 1.0, 2.0]

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="empty sample list"):
            summarize_samples([])


class TestBenchRecord:
    def test_schema_fields(self):
        record = bench_record(
            "micro-test",
            params={"n": 10},
            metrics={"a_s": [1.0, 2.0], "b_s": [3.0, 4.0]},
            derived={"speedup": 2.0},
        )
        assert record["format"] == BENCH_FORMAT
        assert record["benchmark"] == "micro-test"
        assert record["params"] == {"n": 10}
        assert record["repeats"] == 2
        assert set(record["metrics"]) == {"a_s", "b_s"}
        assert record["derived"] == {"speedup": 2.0}
        assert median_of(record, "a_s") == 1.5

    def test_no_metrics_rejected(self):
        with pytest.raises(ValueError, match="at least one metric"):
            bench_record("micro-test", params={}, metrics={})

    def test_mismatched_sample_counts_rejected(self):
        with pytest.raises(ValueError, match="sample counts disagree"):
            bench_record(
                "micro-test",
                params={},
                metrics={"a_s": [1.0], "b_s": [1.0, 2.0]},
            )


class TestWriteBenchRecord:
    def test_round_trip_sorted_with_newline(self, tmp_path):
        record = bench_record(
            "micro-test", params={"n": 1}, metrics={"a_s": [1.0]}
        )
        path = tmp_path / "bench.json"
        write_bench_record(record, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == record
        # Sorted keys: the format tag sorts before metrics.
        assert text.index('"benchmark"') < text.index('"metrics"')

    def test_wrong_format_tag_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a repro-bench/1"):
            write_bench_record({"format": "other"}, tmp_path / "x.json")


class TestCommittedArtifacts:
    """The one committed record, ``BENCH_eval.json`` (written by
    ``repro eval --bench``), stays a valid record."""

    def test_eval_record_is_valid(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_eval.json"
        record = json.loads(path.read_text())
        assert record["format"] == BENCH_FORMAT
        assert record["benchmark"] == "eval-head-to-head"
        assert median_of(record, "planned_delay_s") > 0
        assert record["derived"]["wins_vs_appro[Appro]"] == 0
