"""Fault paths of the serving engine: structured failure, no poisoning.

A job whose planner raises, runs past its timeout, or whose worker
returns a malformed payload must come back from the planning daemon as
a structured failed :class:`JobResult` while sibling jobs in the same
batch (and the same shared-context group) complete normally. Every job
runs once: there are no retries.

Fake planners are registered in the parent process; the pool runs pin
``mp_context="fork"`` so workers inherit those registrations. Cases
that hold at every worker count run at both :data:`WORKER_COUNTS`;
cases that kill a worker process run pooled only (inline, the dying
"worker" would be the test process).
"""

import time

import pytest

from repro.network.topology import random_wrsn
from repro.pipeline import (
    PlannerInfo,
    register_planner,
    unregister_planner,
)
from repro.serve import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_POOL_BROKEN,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    DaemonConfig,
    PlanJob,
    PlanningDaemon,
    PoolConfig,
    TaskTimeout,
    call_with_timeout,
    execute_plan_job,
    geometry_digest,
    run_tasks,
)

from tests._daemon_batch import daemon_batch, daemon_results

#: The inline engine and the process pool.
WORKER_COUNTS = (1, 2)


def _boom_planner(network, request_ids, num_chargers, **kwargs):
    raise ValueError("injected planner failure")


def _slow_planner(network, request_ids, num_chargers, **kwargs):
    time.sleep(30.0)
    raise AssertionError("unreachable: the timeout must fire first")


@pytest.fixture
def fake_planners():
    register_planner(
        PlannerInfo(name="Boom", build=_boom_planner, multi_node=True,
                    paper=False)
    )
    register_planner(
        PlannerInfo(name="Slow", build=_slow_planner, multi_node=True,
                    paper=False)
    )
    yield
    unregister_planner("Boom")
    unregister_planner("Slow")


@pytest.fixture
def net():
    return random_wrsn(num_sensors=20, seed=5)


def _jobs(net, planners):
    # Job i asks for K = 1 + i, so no two jobs coalesce.
    ids = tuple(net.all_sensor_ids()[:10])
    return [
        PlanJob(net, ids, num_chargers=1 + i, planner=p, job_id=f"j{i}")
        for i, p in enumerate(planners)
    ]


class TestRaisingPlanner:
    def test_error_is_structured_and_siblings_survive(
        self, fake_planners, net
    ):
        jobs = _jobs(net, ["Appro", "Boom", "K-minMax"])
        for workers in WORKER_COUNTS:
            results = daemon_results(jobs, workers)
            assert [r.status for r in results] == [
                STATUS_OK, STATUS_ERROR, STATUS_OK,
            ]
            failed = results[1]
            assert failed.error is not None
            assert "injected planner failure" in failed.error
            assert failed.schedule is None
            assert failed.longest_delay_s is None
            assert failed.attempts == 1

    def test_failed_job_does_not_poison_group_context(
        self, fake_planners, net
    ):
        # Same network => same group; the failure lands between two
        # good jobs sharing a request set, and (inline, where the order
        # is fixed) the second still reuses the context the first
        # warmed.
        ids = tuple(net.all_sensor_ids()[:10])
        jobs = [
            PlanJob(net, ids, 2, "Appro", "warm"),
            PlanJob(net, ids, 2, "Boom", "fail"),
            PlanJob(net, ids, 2, "K-minMax", "reuse"),
        ]
        for workers in WORKER_COUNTS:
            results = daemon_results(jobs, workers)
            assert results[0].ok and results[2].ok
            assert results[1].status == STATUS_ERROR
            assert {r.group_key for r in results} == {
                geometry_digest(net)
            }
            if workers == 1:
                assert results[2].context_reused is True

    def test_pool_mode_isolates_failures(self, fake_planners, net):
        jobs = _jobs(net, ["Appro", "Boom", "K-minMax", "Appro"])
        results = daemon_results(jobs, workers=2)
        assert [r.status for r in results] == [
            STATUS_OK, STATUS_ERROR, STATUS_OK, STATUS_OK,
        ]
        assert "injected planner failure" in results[1].error

    def test_unknown_planner_fails_without_submission(self, net):
        jobs = _jobs(net, ["Appro", "NoSuchPlanner"])
        for workers in WORKER_COUNTS:
            results = daemon_results(jobs, workers)
            assert results[0].ok
            assert results[1].status == STATUS_ERROR
            assert results[1].attempts == 0
            assert "NoSuchPlanner" in results[1].error
            assert results[1].group_key == geometry_digest(net)

    def test_oversized_fleet_fails_without_submission(self, net):
        # More chargers than sensors: every planner's cost grows with
        # K, so admission rejects the job before it reaches a worker.
        ids = tuple(net.all_sensor_ids()[:10])
        jobs = [
            PlanJob(net, ids, 2, "Appro", "fine"),
            PlanJob(net, ids, 10**9, "Appro", "huge"),
        ]
        for workers in WORKER_COUNTS:
            tickets, status = daemon_batch(jobs, workers)
            assert tickets[0].job_result.ok
            record = tickets[1].wait()
            assert tickets[1].job_result is None
            assert record["status"] == STATUS_REJECTED
            assert record["reason"] == "payload-too-large"
            assert record["attempts"] == 0
            assert record["error"].startswith("payload-too-large: ")
            assert "1000000000" in record["error"]
            assert status["counters"]["rejected"] == {
                "payload-too-large": 1
            }


def _assert_timeout_isolated(net, workers):
    jobs = _jobs(net, ["Appro", "Slow", "K-EDF"])
    results = daemon_results(jobs, workers, timeout_s=0.2)
    assert [r.status for r in results] == [
        STATUS_OK, STATUS_TIMEOUT, STATUS_OK,
    ]
    assert "0.2" in results[1].error
    assert results[1].attempts == 1


class TestTimeouts:
    def test_serial_timeout(self, fake_planners, net):
        _assert_timeout_isolated(net, workers=1)

    def test_pool_timeout(self, fake_planners, net):
        _assert_timeout_isolated(net, workers=2)

    def test_call_with_timeout_primitive(self):
        with pytest.raises(TaskTimeout):
            call_with_timeout(lambda _: time.sleep(5.0), None, 0.05)
        assert call_with_timeout(lambda x: x + 1, 1, 5.0) == 2


def _garbage_payload(payload):
    return "garbage"


def _keyless_payload(payload):
    return {"schedule": {}}


def _run_with_worker(net, fn, workers):
    """Plan one Appro job on a daemon whose pool runs ``fn``."""
    config = DaemonConfig(
        workers=workers, mp_context="fork" if workers > 1 else None
    )
    with PlanningDaemon(config) as daemon:
        daemon.pool.fn = fn
        return daemon.submit(_jobs(net, ["Appro"])[0]).wait(120.0)


class TestMalformedPayload:
    def test_non_dict_value_is_reported(self, net):
        for workers in WORKER_COUNTS:
            record = _run_with_worker(net, _garbage_payload, workers)
            assert record["status"] == STATUS_ERROR
            assert "malformed worker payload" in record["error"]

    def test_missing_keys_are_reported(self, net):
        for workers in WORKER_COUNTS:
            record = _run_with_worker(net, _keyless_payload, workers)
            assert record["status"] == STATUS_ERROR
            assert "malformed worker payload" in record["error"]

    def test_malformed_does_not_poison_fallback_runs(self, net):
        # Once the real worker function is back, the same daemon plans
        # normally — no state was corrupted.
        job = _jobs(net, ["Appro"])[0]
        for workers in WORKER_COUNTS:
            config = DaemonConfig(
                workers=workers,
                mp_context="fork" if workers > 1 else None,
            )
            with PlanningDaemon(config) as daemon:
                daemon.pool.fn = _garbage_payload
                bad = daemon.submit(job).wait(120.0)
                daemon.pool.fn = execute_plan_job
                good = daemon.submit(job).wait(120.0)
            assert bad["status"] == STATUS_ERROR
            assert good["status"] == STATUS_OK


class TestPoolEngine:
    def test_dead_worker_fails_only_its_task(self):
        # A worker that hard-exits breaks the pool; the engine must
        # report that task as pool-broken and leave siblings
        # unaffected.
        outcomes = run_tasks(
            _exit_or_echo,
            ["die", "a", "b", "c"],
            config=PoolConfig(workers=2, mp_context="fork"),
        )
        assert outcomes[0].status == STATUS_POOL_BROKEN
        assert "worker process died" in outcomes[0].error
        # Siblings either completed or were collateral of the broken
        # pool (scheduling decides which); none may hang or vanish.
        for o in outcomes[1:]:
            if o.ok:
                assert o.value
            else:
                assert o.status == STATUS_POOL_BROKEN
                assert "worker process died" in o.error

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_run_reports_each_task_once(self, workers):
        # Each task's outcome reaches progress exactly once, after its
        # one and only run.
        payloads = [("ok", "a"), ("raise", "b"), ("ok", "c")]
        seen = []
        outcomes = run_tasks(
            _mixed_task,
            payloads,
            config=PoolConfig(workers=workers, mp_context="fork"),
            progress=seen.append,
        )
        assert [o.status for o in outcomes] == [
            STATUS_OK, STATUS_ERROR, STATUS_OK,
        ]
        assert [o.attempts for o in outcomes] == [1, 1, 1]
        assert sorted(p.index for p in seen) == [0, 1, 2]
        if workers == 1:
            # Inline, tasks run in payload order.
            assert [p.index for p in seen] == [0, 1, 2]

    def test_outcomes_equal_at_both_worker_counts(self):
        # The serial run is the pooled one run inline: a mixed list of
        # ok, raising and timing-out payloads ends identically at 1 and
        # 2 workers, each task run once.
        def run(workers):
            payloads = [
                ("ok", "a"),
                ("raise", "b"),
                ("sleep", "c"),
                ("ok", "e"),
            ]
            outcomes = run_tasks(
                _mixed_task,
                payloads,
                config=PoolConfig(workers=workers, mp_context="fork",
                                  timeout_s=0.3),
            )
            return [
                (o.index, o.status, o.value, o.attempts, o.error)
                for o in outcomes
            ]

        serial = run(1)
        assert serial == run(2)
        assert [row[1:4] for row in serial] == [
            (STATUS_OK, "a", 1),
            (STATUS_ERROR, None, 1),
            (STATUS_TIMEOUT, None, 1),
            (STATUS_OK, "e", 1),
        ]

    def test_worker_killer_yields_terminal_pool_broken(self):
        # A payload that kills its worker on every run breaks the pool
        # once; every task in flight ends pool-broken after one run.
        seen = []
        outcomes = run_tasks(
            _always_exit,
            ["a", "b", "c"],
            config=PoolConfig(workers=2, mp_context="fork"),
            progress=seen.append,
        )
        assert [o.status for o in outcomes] == [STATUS_POOL_BROKEN] * 3
        for o in outcomes:
            assert "worker process died" in o.error
            assert o.attempts == 1
        # Exactly one (terminal) progress call per task — no dupes.
        assert sorted(p.index for p in seen) == [0, 1, 2]

    def test_pool_broken_surfaces_through_daemon_status(self, net):
        # The daemon maps the pool-broken outcome onto the job record,
        # counts it and rebuilds its pool; two breakages stay below the
        # breaker threshold, so nothing runs degraded.
        jobs = _jobs(net, ["Die", "Die"])
        register_planner(
            PlannerInfo(name="Die", build=_dying_planner,
                        multi_node=True, paper=False)
        )
        try:
            tickets, status = daemon_batch(jobs, workers=2)
        finally:
            unregister_planner("Die")
        assert all(
            t.job_result.status == STATUS_POOL_BROKEN for t in tickets
        )
        assert status["counters"]["completed"] == {STATUS_POOL_BROKEN: 2}
        assert status["counters"]["degraded"] == 0
        assert status["pool_rebuilds"] >= 1


def _exit_or_echo(payload):
    import os

    if payload == "die":
        os._exit(13)
    return payload


def _mixed_task(payload):
    # ("ok", v) echoes v; ("raise", _) raises; ("sleep", _) outlives
    # any test timeout.
    kind, arg = payload
    if kind == "raise":
        raise ValueError(f"injected failure for {arg}")
    if kind == "sleep":
        time.sleep(2.0)
    return arg


def _always_exit(payload):
    # Deterministic worker killer: breaks the pool on every run.
    import os

    os._exit(13)


def _dying_planner(network, request_ids, num_chargers, **kwargs):
    import os

    os._exit(13)
