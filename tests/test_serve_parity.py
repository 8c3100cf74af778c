"""Determinism/parity suite for the batch planning service.

The service's core contract: for a fixed job batch, the ordered
sequence of :meth:`JobResult.parity_key` strings — canonical JSON over
the deterministic fields (id, status, planner, K, delay, schedule,
error) — is byte-identical whether jobs run sequentially, through the
in-process service, or across a process pool at any worker count. The
100-job seeded corpus here exercises every registered planner over ten
networks with varying request sets and ``K``.
"""

import numpy as np
import pytest

from repro.io import dump_jsonl_line, schedule_to_dict
from repro.network.topology import random_wrsn
from repro.pipeline import planner_names, run_planner
from repro.serve import PlanJob, PlanningService

#: Worker counts the corpus must agree across (1 = the serial path).
WORKER_COUNTS = (1, 2, 4)


def build_corpus(networks: int = 10, jobs_per_network: int = 10):
    """The seeded 100-job corpus: every planner, K in 1..3, ten nets."""
    planners = planner_names()
    jobs = []
    for ni in range(networks):
        net = random_wrsn(num_sensors=18 + ni % 7, seed=100 + ni)
        rng = np.random.default_rng(200 + ni)
        net.set_residuals(
            {
                sid: float(rng.uniform(0.05, 0.2))
                * net.sensor(sid).capacity_j
                for sid in net.all_sensor_ids()
            }
        )
        ids = net.all_sensor_ids()
        for j in range(jobs_per_network):
            jobs.append(
                PlanJob(
                    network=net,
                    request_ids=tuple(ids[: 8 + (j % 5)]),
                    num_chargers=1 + j % 3,
                    planner=planners[j % len(planners)],
                    job_id=f"n{ni}-j{j}",
                )
            )
    return jobs


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def serial_results(corpus):
    return PlanningService(workers=1).run(corpus)


class TestCorpusParity:
    def test_corpus_shape(self, corpus):
        assert len(corpus) == 100
        assert set(j.planner for j in corpus) == set(planner_names())
        assert set(j.num_chargers for j in corpus) == {1, 2, 3}

    def test_serial_service_matches_direct_pipeline(
        self, corpus, serial_results
    ):
        # Baseline: run_planner + schedule_to_dict with no service at
        # all — the service (and its context sharing) must be
        # byte-transparent against it.
        for job, result in zip(corpus, serial_results):
            assert result.ok, result.error
            planned = run_planner(
                job.planner,
                job.network,
                job.request_ids,
                job.num_chargers,
            )
            expected = schedule_to_dict(planned, algorithm=job.planner)
            assert dump_jsonl_line(result.schedule) == dump_jsonl_line(
                expected
            )
            assert result.longest_delay_s == planned.longest_delay()

    @pytest.mark.parametrize("workers", [w for w in WORKER_COUNTS if w > 1])
    def test_pool_byte_identical_to_serial(
        self, corpus, serial_results, workers
    ):
        pooled = PlanningService(workers=workers, mp_context="fork").run(
            corpus
        )
        serial_keys = [r.parity_key() for r in serial_results]
        pooled_keys = [r.parity_key() for r in pooled]
        assert pooled_keys == serial_keys

    def test_result_order_is_stable(self, corpus, serial_results):
        assert [r.index for r in serial_results] == list(range(len(corpus)))
        assert [r.job_id for r in serial_results] == [
            j.job_id for j in corpus
        ]

    def test_groups_follow_network_identity(self, corpus, serial_results):
        groups = {}
        for job, result in zip(corpus, serial_results):
            groups.setdefault(id(job.network), set()).add(result.group_key)
        # One group key per distinct network, and no key shared.
        assert all(len(keys) == 1 for keys in groups.values())
        all_keys = [next(iter(keys)) for keys in groups.values()]
        assert len(set(all_keys)) == len(all_keys) == 10


class TestQuickParity:
    """Small fast check used by the CI parity quick-check step."""

    def test_quick_corpus_parity(self):
        jobs = build_corpus(networks=2, jobs_per_network=6)
        serial = PlanningService(workers=1).run(jobs)
        pooled = PlanningService(workers=2, mp_context="fork").run(jobs)
        assert [r.parity_key() for r in serial] == [
            r.parity_key() for r in pooled
        ]
        assert all(r.ok for r in serial)

    def test_parity_key_excludes_diagnostics(self):
        jobs = build_corpus(networks=1, jobs_per_network=2)
        first = PlanningService(workers=1).run(jobs)
        second = PlanningService(workers=1).run(jobs)
        # Wall-clock diagnostics differ between runs; parity keys must
        # not see them.
        assert [r.parity_key() for r in first] == [
            r.parity_key() for r in second
        ]

    def test_repeat_jobs_reuse_context(self):
        jobs = build_corpus(networks=1, jobs_per_network=6)
        service = PlanningService(workers=1)
        results = service.run(jobs)
        reuse_flags = [r.context_reused for r in results]
        # Jobs 0..4 have distinct request-set lengths (8..12); job 5
        # repeats job 0's request set and hits its warm context.
        assert reuse_flags[5] is True
        assert service.stats()["context_reuses"] >= 1


class TestSharedContexts:
    """``share_contexts=True`` against ``False`` (``repro serve
    --no-shared-context``) on one job group: same bytes, and only the
    shared run reuses its context."""

    def test_shared_and_cold_contexts_agree(self):
        net = random_wrsn(num_sensors=80, seed=301)
        rng = np.random.default_rng(302)
        net.set_residuals(
            {
                sid: float(rng.uniform(0, 0.2)) * 10_800.0
                for sid in net.all_sensor_ids()
            }
        )
        requests = tuple(net.all_sensor_ids())
        planners = ("Appro", "K-minMax", "K-EDF")
        jobs = [
            PlanJob(
                network=net,
                request_ids=requests,
                num_chargers=1 + j % 3,
                planner=planners[j % len(planners)],
                job_id=f"job-{j}",
            )
            for j in range(6)
        ]
        warm = PlanningService(share_contexts=True).run(jobs)
        cold = PlanningService(share_contexts=False).run(jobs)
        assert all(r.ok for r in warm)
        assert [r.parity_key() for r in warm] == [
            r.parity_key() for r in cold
        ]
        assert sum(r.context_reused for r in warm) == len(jobs) - 1
        assert not any(r.context_reused for r in cold)
        assert sum(r.cache["memo_hits"] for r in warm) > sum(
            r.cache["memo_hits"] for r in cold
        )
