"""Job/result JSONL schemas and the :mod:`repro.io` JSON Lines helpers."""

import json

import pytest

from repro.io import (
    JOB_FORMAT,
    RESULT_FORMAT,
    dump_jsonl_line,
    read_jsonl,
    save_wrsn,
    write_jsonl,
)
from repro.network.topology import random_wrsn
from repro.serve import (
    JobLineError,
    JobResult,
    PlanJob,
    job_to_dict,
    jobs_from_lines,
    jobs_from_records,
    load_jobs,
    load_jobs_lenient,
    save_jobs,
)

from tests._daemon_batch import daemon_results


@pytest.fixture
def net():
    return random_wrsn(num_sensors=12, seed=2)


def _job(net, **overrides):
    kwargs = dict(
        network=net,
        request_ids=tuple(net.all_sensor_ids()[:6]),
        num_chargers=2,
        planner="Appro",
        job_id="j",
    )
    kwargs.update(overrides)
    return PlanJob(**kwargs)


class TestPlanJobValidation:
    def test_empty_requests_rejected(self, net):
        with pytest.raises(ValueError, match="non-empty"):
            _job(net, request_ids=())

    def test_nonpositive_chargers_rejected(self, net):
        with pytest.raises(ValueError, match="positive"):
            _job(net, num_chargers=0)


class TestJsonlRoundTrip:
    def test_sharing_survives_round_trip(self, net, tmp_path):
        other = random_wrsn(num_sensors=12, seed=3)
        jobs = [
            _job(net, job_id="a"),
            _job(net, job_id="b", num_chargers=1),
            _job(other, job_id="c"),
        ]
        path = tmp_path / "jobs.jsonl"
        save_jobs(jobs, path)
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert [ln["format"] for ln in lines] == [JOB_FORMAT] * 3
        # The second job references the first job's inline network.
        assert "network" in lines[0] and lines[0]["network_id"] == "net-0"
        assert lines[1]["network_ref"] == "net-0"
        assert lines[2]["network_id"] == "net-1"

        loaded = load_jobs(path)
        assert [j.job_id for j in loaded] == ["a", "b", "c"]
        assert loaded[0].network is loaded[1].network
        assert loaded[0].network is not loaded[2].network
        assert loaded[0].request_ids == jobs[0].request_ids

    def test_network_path_records_share_instances(self, net, tmp_path):
        save_wrsn(net, tmp_path / "inst.json")
        records = [
            {
                "format": JOB_FORMAT,
                "network_path": "inst.json",
                "requests": [0, 1, 2],
                "num_chargers": 2,
                "planner": "Appro",
            },
            {
                "format": JOB_FORMAT,
                "network_path": "inst.json",
                "requests": [3, 4],
                "num_chargers": 1,
                "planner": "K-EDF",
            },
        ]
        jobs = jobs_from_records(records, base_dir=tmp_path)
        assert jobs[0].network is jobs[1].network
        assert jobs[1].job_id == "job-1"  # default ids are positional

    def test_loaded_jobs_execute(self, net, tmp_path):
        path = tmp_path / "jobs.jsonl"
        save_jobs([_job(net, job_id="x")], path)
        results = daemon_results(load_jobs(path))
        assert results[0].ok


class TestLoaderErrors:
    def test_wrong_format_tag(self):
        with pytest.raises(ValueError, match="line 1"):
            jobs_from_records([{"format": "nope", "requests": [1]}])

    def test_dangling_network_ref(self, net):
        records = [
            job_to_dict(_job(net), network_id="n0"),
            {
                "format": JOB_FORMAT,
                "network_ref": "missing",
                "requests": [1],
            },
        ]
        with pytest.raises(ValueError, match="network_ref 'missing'"):
            jobs_from_records(records)

    def test_record_without_network(self):
        with pytest.raises(ValueError, match="needs one of"):
            jobs_from_records([{"format": JOB_FORMAT, "requests": [1]}])

    def test_record_without_requests(self, net):
        record = job_to_dict(_job(net))
        del record["requests"]
        with pytest.raises(ValueError, match="requests"):
            jobs_from_records([record])


class TestFieldTypes:
    """Wrong-typed fields are rejected, never coerced."""

    def _record(self, net, **fields):
        record = job_to_dict(_job(net))
        record.update(fields)
        return json.dumps(record)

    @pytest.mark.parametrize(
        "requests", ["12", [1.9, 2.2], [True, 2], [1, "2"], {"1": 2}]
    )
    def test_requests_must_be_a_list_of_ints(self, net, requests):
        jobs, errors = jobs_from_lines([self._record(net, requests=requests)])
        assert jobs == []
        (error,) = errors
        assert error.lineno == 1
        assert "'requests' must be a list of integer" in error.error

    @pytest.mark.parametrize("num_chargers", [2.7, True, "2", 0, -1, None])
    def test_num_chargers_must_be_a_positive_int(self, net, num_chargers):
        jobs, errors = jobs_from_lines(
            [self._record(net, num_chargers=num_chargers)]
        )
        assert jobs == []
        (error,) = errors
        assert error.lineno == 1
        assert "'num_chargers' must be an integer >= 1" in error.error

    def test_valid_types_pass_unchanged(self, net):
        jobs, errors = jobs_from_lines(
            [self._record(net, requests=[3, 1], num_chargers=3)]
        )
        assert errors == []
        ((_, job),) = jobs
        assert job.request_ids == (3, 1)
        assert job.num_chargers == 3

    def test_unreadable_network_path_is_a_line_error(self, tmp_path):
        record = {
            "format": JOB_FORMAT,
            "network_path": str(tmp_path / "missing.json"),
            "requests": [1],
        }
        jobs, errors = jobs_from_lines([json.dumps(record)])
        assert jobs == []
        assert "unusable network" in errors[0].error


class TestLenientLoading:
    def _mixed_lines(self, net):
        # Line 1: good, labels its network.  Line 2: broken JSON.
        # Line 3: good, references the label across the damage.
        # Line 4: wrong format tag.  Line 5: blank.  Line 6: empty
        # request set.  Line 7: good again.
        good = json.dumps(job_to_dict(_job(net, job_id="a"),
                                      network_id="n0"))
        ref = json.dumps(
            {"format": JOB_FORMAT, "network_ref": "n0",
             "requests": [1, 2], "num_chargers": 1, "id": "b"}
        )
        empty_req = json.dumps(
            {"format": JOB_FORMAT, "network_ref": "n0",
             "requests": [], "id": "c"}
        )
        tail = json.dumps(
            {"format": JOB_FORMAT, "network_ref": "n0",
             "requests": [3], "id": "d"}
        )
        return [
            good,
            '{"format": "repro-job/1", "requests": [1,',
            ref,
            '{"format": "nope", "requests": [1]}',
            "   ",
            empty_req,
            tail,
        ]

    def test_mixed_corpus_keeps_good_lines(self, net):
        jobs, errors = jobs_from_lines(self._mixed_lines(net))
        assert [(n, j.job_id) for n, j in jobs] == [
            (1, "a"), (3, "b"), (7, "d"),
        ]
        # Sharing survives the damaged lines between ref and label.
        assert jobs[1][1].network is jobs[0][1].network
        assert jobs[2][1].network is jobs[0][1].network
        assert [e.lineno for e in errors] == [2, 4, 6]
        assert "malformed JSON" in errors[0].error
        assert "format" in errors[1].error
        assert "requests" in errors[2].error

    def test_all_bad_lines_yield_no_jobs(self):
        jobs, errors = jobs_from_lines(["not json", "[1, 2]"])
        assert jobs == []
        assert len(errors) == 2
        assert "expected a JSON object" in errors[1].error

    def test_line_error_result_record(self):
        record = JobLineError(4, "boom").to_result_dict()
        assert record["format"] == RESULT_FORMAT
        assert record["id"] == "line-4"
        assert record["index"] == 3
        assert record["status"] == "error"
        assert record["error"] == "boom"
        assert record["schedule"] is None

    def test_load_jobs_lenient_matches_strict_on_clean_file(
        self, net, tmp_path
    ):
        path = tmp_path / "jobs.jsonl"
        save_jobs([_job(net, job_id="x"), _job(net, job_id="y")], path)
        strict = load_jobs(path)
        jobs, errors = load_jobs_lenient(path)
        assert errors == []
        assert [j.job_id for _, j in jobs] == [j.job_id for j in strict]
        assert [n for n, _ in jobs] == [1, 2]

    def test_lenient_loaded_jobs_execute(self, net, tmp_path):
        path = tmp_path / "jobs.jsonl"
        lines = self._mixed_lines(net)
        path.write_text("".join(line + "\n" for line in lines))
        jobs, errors = load_jobs_lenient(path)
        results = daemon_results([j for _, j in jobs])
        assert [r.ok for r in results] == [True, True, True]
        assert len(errors) == 3


class TestJobResult:
    def test_to_dict_carries_format(self):
        result = JobResult(
            job_id="j", index=0, status="ok", planner="Appro",
            num_chargers=2,
        )
        doc = result.to_dict()
        assert doc["format"] == RESULT_FORMAT
        assert doc["id"] == "j"

    def test_parity_key_ignores_diagnostics(self):
        base = dict(
            job_id="j", index=0, status="ok", planner="Appro",
            num_chargers=2, longest_delay_s=10.0, schedule={"a": 1},
        )
        fast = JobResult(**base, plan_s=0.1, total_s=0.2, attempts=1)
        slow = JobResult(
            **base, plan_s=9.9, total_s=20.0, attempts=3,
            context_reused=True, cache={"memo_hits": 5},
        )
        assert fast.parity_key() == slow.parity_key()

    def test_parity_key_sees_schedule_changes(self):
        a = JobResult(job_id="j", index=0, status="ok", planner="Appro",
                      num_chargers=2, schedule={"a": 1})
        b = JobResult(job_id="j", index=0, status="ok", planner="Appro",
                      num_chargers=2, schedule={"a": 2})
        assert a.parity_key() != b.parity_key()


class TestIoJsonl:
    def test_round_trip_is_canonical(self, tmp_path):
        rows = [{"b": 1, "a": [1, 2]}, {"x": None}]
        path = tmp_path / "rows.jsonl"
        write_jsonl(rows, path)
        text = path.read_text()
        assert text == '{"a":[1,2],"b":1}\n{"x":null}\n'
        assert read_jsonl(path) == rows

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('\n{"a":1}\n\n  \n{"b":2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a":1}\n[1,2]\n')
        with pytest.raises(ValueError, match="2"):
            read_jsonl(path)

    def test_dump_jsonl_line_sorts_keys(self):
        assert dump_jsonl_line({"b": 1, "a": 2}) == '{"a":2,"b":1}'
