"""Fault paths of the batch service: structured failure, no poisoning.

A job whose planner raises, runs past its timeout, or whose worker
returns a malformed payload must come back as a structured failed
:class:`JobResult` — with its retry count — while sibling jobs in the
same batch (and the same shared-context group) complete normally.

Fake planners are registered in the parent process; the pool tests pin
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
    run_planner,
    unregister_planner,
)
from repro.serve import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_POOL_BROKEN,
    STATUS_TIMEOUT,
    PlanJob,
    PlanningService,
    PoolConfig,
    TaskTimeout,
    call_with_timeout,
    run_tasks,
)
from repro.serve import pool as pool_module
from repro.serve import service as service_module

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
    ids = tuple(net.all_sensor_ids()[:10])
    return [
        PlanJob(net, ids, num_chargers=2, planner=p, job_id=f"j{i}")
        for i, p in enumerate(planners)
    ]


class TestRaisingPlanner:
    def test_error_is_structured_and_siblings_survive(
        self, fake_planners, net
    ):
        jobs = _jobs(net, ["Appro", "Boom", "K-minMax"])
        results = PlanningService(workers=1).run(jobs)
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
        # good jobs sharing a request set, and the second still reuses
        # the context the first warmed.
        ids = tuple(net.all_sensor_ids()[:10])
        jobs = [
            PlanJob(net, ids, 2, "Appro", "warm"),
            PlanJob(net, ids, 2, "Boom", "fail"),
            PlanJob(net, ids, 2, "K-minMax", "reuse"),
        ]
        service = PlanningService(workers=1)
        results = service.run(jobs)
        assert results[0].ok and results[2].ok
        assert results[2].context_reused is True
        assert {r.group_key for r in results} == {"g0"}

    def test_pool_mode_isolates_failures(self, fake_planners, net):
        jobs = _jobs(net, ["Appro", "Boom", "K-minMax", "Appro"])
        results = PlanningService(workers=2, mp_context="fork").run(jobs)
        assert [r.status for r in results] == [
            STATUS_OK, STATUS_ERROR, STATUS_OK, STATUS_OK,
        ]
        assert "injected planner failure" in results[1].error

    def test_retries_are_counted(self, fake_planners, net):
        jobs = _jobs(net, ["Boom"])
        results = PlanningService(workers=1, max_retries=2).run(jobs)
        assert results[0].status == STATUS_ERROR
        assert results[0].attempts == 3

    def test_unknown_planner_fails_without_submission(self, net):
        jobs = _jobs(net, ["Appro", "NoSuchPlanner"])
        results = PlanningService(workers=1, max_retries=3).run(jobs)
        assert results[0].ok
        assert results[1].status == STATUS_ERROR
        assert results[1].attempts == 0
        assert "NoSuchPlanner" in results[1].error

    def test_oversized_fleet_fails_without_submission(self, net):
        # More chargers than sensors: every planner's cost grows with
        # K, so the job fails in the parent like an unknown planner.
        ids = tuple(net.all_sensor_ids()[:10])
        jobs = [
            PlanJob(net, ids, 2, "Appro", "fine"),
            PlanJob(net, ids, 10**9, "Appro", "huge"),
        ]
        service = PlanningService(workers=1, max_retries=3)
        results = service.run(jobs)
        assert results[0].ok
        assert results[1].status == STATUS_ERROR
        assert results[1].attempts == 0
        assert results[1].error.startswith("payload-too-large: ")
        assert "1000000000" in results[1].error
        assert service.stats()["errors"] == 1


def _assert_timeout_isolated(net, workers):
    jobs = _jobs(net, ["Appro", "Slow", "K-EDF"])
    results = PlanningService(
        workers=workers, timeout_s=0.2, mp_context="fork"
    ).run(jobs)
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


class TestMalformedPayload:
    def test_non_dict_value_is_reported(self, net, monkeypatch):
        monkeypatch.setattr(
            service_module, "execute_plan_job", lambda payload: "garbage"
        )
        jobs = _jobs(net, ["Appro"])
        results = PlanningService(workers=1).run(jobs)
        assert results[0].status == STATUS_ERROR
        assert "malformed worker payload" in results[0].error

    def test_missing_keys_are_reported(self, net, monkeypatch):
        monkeypatch.setattr(
            service_module,
            "execute_plan_job",
            lambda payload: {"schedule": {}},
        )
        results = PlanningService(workers=1).run(_jobs(net, ["Appro"]))
        assert results[0].status == STATUS_ERROR
        assert "malformed worker payload" in results[0].error

    def test_malformed_does_not_poison_fallback_runs(
        self, net, monkeypatch
    ):
        # After the monkeypatch is gone the same service instance
        # plans normally — no state was corrupted.
        service = PlanningService(workers=1)
        with monkeypatch.context() as m:
            m.setattr(
                service_module, "execute_plan_job", lambda p: None
            )
            bad = service.run(_jobs(net, ["Appro"]))
        assert bad[0].status == STATUS_ERROR
        good = service.run(_jobs(net, ["Appro"]))
        assert good[0].ok


class TestPoolEngine:
    def test_dead_worker_fails_only_its_task(self):
        # A worker that hard-exits breaks the pool; the engine must
        # report that task as pool-broken, rebuild, and (with retries
        # off) leave siblings unaffected.
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

    def test_retry_rescues_broken_pool_collateral(self, monkeypatch):
        # With a retry wave, the collateral of the broken pool must
        # come back clean: only "die" keeps failing.
        monkeypatch.setattr(pool_module, "MAX_POOL_REBUILDS", 5)
        outcomes = run_tasks(
            _exit_or_echo,
            ["die", "a", "b", "c"],
            config=PoolConfig(workers=2, mp_context="fork",
                              max_retries=3),
        )
        assert not outcomes[0].ok
        assert [o.value for o in outcomes[1:]] == ["a", "b", "c"]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_retry_waves_report_each_task_once(self, workers, tmp_path):
        # Each task's final outcome reaches progress exactly once, and
        # a task succeeding on its first attempt is reported in the
        # wave it succeeded in: before any retried task.
        payloads = [
            ("ok", "a"),
            ("once", str(tmp_path / "b")),
            ("ok", "c"),
            ("raise", "d"),
        ]
        seen = []
        outcomes = run_tasks(
            _mixed_task,
            payloads,
            config=PoolConfig(workers=workers, mp_context="fork",
                              max_retries=1),
            progress=seen.append,
        )
        assert [o.status for o in outcomes] == [
            STATUS_OK, STATUS_OK, STATUS_OK, STATUS_ERROR,
        ]
        assert [o.attempts for o in outcomes] == [1, 2, 1, 2]
        assert sorted(p.index for p in seen) == [0, 1, 2, 3]
        assert {p.index for p in seen[:2]} == {0, 2}
        if workers == 1:
            # Inline, each wave runs in payload order.
            assert [p.index for p in seen] == [0, 2, 1, 3]

    def test_outcomes_equal_at_both_worker_counts(self, tmp_path):
        # The serial retry waves are the pooled ones run inline: a
        # mixed list of ok, raising, timing-out and fail-once payloads
        # ends identically at 1 and 2 workers.
        def run(workers):
            flags = tmp_path / f"w{workers}"
            flags.mkdir()
            payloads = [
                ("ok", "a"),
                ("raise", "b"),
                ("sleep", "c"),
                ("once", str(flags / "d")),
                ("ok", "e"),
                ("once", str(flags / "f")),
            ]
            outcomes = run_tasks(
                _mixed_task,
                payloads,
                config=PoolConfig(workers=workers, mp_context="fork",
                                  max_retries=2, timeout_s=0.3),
            )
            return [
                (o.index, o.status, o.value, o.attempts, o.error)
                for o in outcomes
            ]

        serial = run(1)
        assert serial == run(2)
        assert [row[1:4] for row in serial] == [
            (STATUS_OK, "a", 1),
            (STATUS_ERROR, None, 3),
            (STATUS_TIMEOUT, None, 3),
            (STATUS_OK, "done", 2),
            (STATUS_OK, "e", 1),
            (STATUS_OK, "done", 2),
        ]

    def test_retry_recovers_after_pool_rebuild(self):
        outcomes = run_tasks(
            _exit_once_then_echo,
            ["a", "b"],
            config=PoolConfig(workers=2, mp_context="fork",
                              max_retries=2),
        )
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == ["a", "b"]

    def test_rebuild_cap_yields_terminal_pool_broken(self, monkeypatch):
        # A payload that kills its worker on *every* attempt would
        # break the pool once per retry wave; the rebuild budget must
        # stop the carnage and leave the survivors terminally broken.
        monkeypatch.setattr(pool_module, "MAX_POOL_REBUILDS", 1)
        seen = []
        outcomes = run_tasks(
            _always_exit,
            ["a", "b", "c"],
            config=PoolConfig(workers=2, mp_context="fork",
                              max_retries=5),
            progress=seen.append,
        )
        assert [o.status for o in outcomes] == [STATUS_POOL_BROKEN] * 3
        for o in outcomes:
            assert "worker process died" in o.error
            # One attempt per wave; 1 rebuild allows exactly 2 waves.
            assert o.attempts == 2
        # Exactly one (terminal) progress call per task — no dupes.
        assert sorted(p.index for p in seen) == [0, 1, 2]

    def test_pool_broken_surfaces_through_service_stats(
        self, fake_planners, net, monkeypatch
    ):
        # The service maps the pool-broken outcome onto the job result
        # and counts it both specifically and as an error.
        jobs = _jobs(net, ["Die", "Die"])
        register_planner(
            PlannerInfo(name="Die", build=_dying_planner,
                        multi_node=True, paper=False)
        )
        monkeypatch.setattr(pool_module, "MAX_POOL_REBUILDS", 1)
        try:
            service = PlanningService(workers=2, max_retries=4,
                                      mp_context="fork")
            results = service.run(jobs)
        finally:
            unregister_planner("Die")
        assert all(r.status == STATUS_POOL_BROKEN for r in results)
        stats = service.stats()
        assert stats["pool_broken"] == 2
        assert stats["errors"] == 2
        assert stats["ok"] == 0


def _exit_or_echo(payload):
    import os

    if payload == "die":
        os._exit(13)
    return payload


def _mixed_task(payload):
    # ("ok", v) echoes v; ("raise", _) raises; ("sleep", _) outlives
    # any test timeout; ("once", path) fails until the flag file at
    # path exists, creating it on the way out.
    import os

    kind, arg = payload
    if kind == "raise":
        raise ValueError(f"injected failure for {arg}")
    if kind == "sleep":
        time.sleep(2.0)
    if kind == "once":
        if not os.path.exists(arg):
            open(arg, "w").close()
            raise RuntimeError("first attempt fails")
        return "done"
    return arg


def _always_exit(payload):
    # Deterministic worker killer: breaks the pool on every attempt.
    import os

    os._exit(13)


def _dying_planner(network, request_ids, num_chargers, **kwargs):
    import os

    os._exit(13)


_EXIT_FLAG = None


def _exit_once_then_echo(payload):
    # Dies in the first wave's worker processes, succeeds after the
    # pool rebuild: the flag file is per-run state on disk.
    import os
    import tempfile

    flag = os.path.join(
        tempfile.gettempdir(), f"repro-pool-test-{os.getppid()}-{payload}"
    )
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("1")
        os._exit(13)
    os.remove(flag)
    return payload
