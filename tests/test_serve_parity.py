"""Determinism/parity suite for batches through the planning daemon.

The serving contract: for a fixed job batch, the ordered sequence of
:meth:`JobResult.parity_key` strings — canonical JSON over the
deterministic fields (id, status, planner, K, delay, schedule, error)
— is byte-identical whether jobs run sequentially through
:func:`run_planner`, through an in-process daemon, or across a daemon's
process pool at any worker count. The 100-job seeded corpus here
exercises every registered planner over ten networks with varying
request sets and ``K``.
"""

import numpy as np
import pytest

from repro.io import (
    dump_jsonl_line,
    schedule_to_dict,
    wrsn_from_dict,
    wrsn_to_dict,
)
from repro.network.topology import random_wrsn
from repro.pipeline import PlanningContext, planner_names, run_planner
from repro.serve import JobResult, PlanJob, geometry_digest

from tests._daemon_batch import daemon_batch, daemon_results

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
    return daemon_results(corpus)


class TestCorpusParity:
    def test_corpus_shape(self, corpus):
        assert len(corpus) == 100
        assert set(j.planner for j in corpus) == set(planner_names())
        assert set(j.num_chargers for j in corpus) == {1, 2, 3}

    def test_serial_service_matches_direct_pipeline(
        self, corpus, serial_results
    ):
        # Baseline: run_planner + schedule_to_dict with no daemon at
        # all — the daemon (and its context sharing) must be
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
        pooled = daemon_results(corpus, workers=workers)
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
        # One group key per distinct network, and no key shared: the
        # key is the network's geometry digest.
        assert all(len(keys) == 1 for keys in groups.values())
        all_keys = [next(iter(keys)) for keys in groups.values()]
        assert len(set(all_keys)) == len(all_keys) == 10
        assert all_keys[0] == geometry_digest(corpus[0].network)

    def test_groups_follow_geometry_not_object(self, corpus):
        # A structurally identical copy lands in its original's group
        # (another K, so the two jobs are not coalesced).
        job = corpus[0]
        copy = wrsn_from_dict(wrsn_to_dict(job.network))
        twin = PlanJob(copy, job.request_ids, job.num_chargers + 1,
                       job.planner, "twin")
        results = daemon_results([job, twin])
        assert results[0].group_key == results[1].group_key
        assert results[1].context_reused


class TestQuickParity:
    """Small fast check used by the CI parity quick-check step."""

    def test_quick_corpus_parity(self):
        jobs = build_corpus(networks=2, jobs_per_network=6)
        serial = daemon_results(jobs)
        pooled = daemon_results(jobs, workers=2)
        assert [r.parity_key() for r in serial] == [
            r.parity_key() for r in pooled
        ]
        assert all(r.ok for r in serial)

    def test_parity_key_excludes_diagnostics(self):
        jobs = build_corpus(networks=1, jobs_per_network=2)
        first = daemon_results(jobs)
        second = daemon_results(jobs)
        # Wall-clock diagnostics differ between runs; parity keys must
        # not see them.
        assert [r.parity_key() for r in first] == [
            r.parity_key() for r in second
        ]

    def test_repeat_jobs_reuse_context(self):
        jobs = build_corpus(networks=1, jobs_per_network=6)
        tickets, status = daemon_batch(jobs)
        reuse_flags = [t.job_result.context_reused for t in tickets]
        # Jobs 0..4 have distinct request-set lengths (8..12); job 5
        # repeats job 0's request set with another K and planner (so it
        # is not coalesced) and hits its warm context.
        assert (jobs[5].num_chargers, jobs[5].planner) != (
            jobs[0].num_chargers, jobs[0].planner
        )
        assert reuse_flags == [False] * 5 + [True]
        assert status["context_cache"]["hits"] == 1
        assert status["counters"]["coalesced"] == 0


class TestSharedContexts:
    """A daemon batch on one job group against cold, unshared
    :class:`PlanningContext` runs: same bytes, and only the daemon
    reuses its context."""

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
        # Every job differs in K, so none is coalesced with another.
        jobs = [
            PlanJob(
                network=net,
                request_ids=requests,
                num_chargers=1 + j,
                planner=planners[j % len(planners)],
                job_id=f"job-{j}",
            )
            for j in range(6)
        ]
        warm = daemon_results(jobs)
        cold = []
        cold_hits = 0
        for i, job in enumerate(jobs):
            cold_net = net.copy()
            context = PlanningContext(cold_net, requests)
            planned = run_planner(
                job.planner, cold_net, requests, job.num_chargers,
                context=context,
            )
            cold_hits += context.stats()["memo_hits"]
            cold.append(
                JobResult(
                    job_id=job.job_id,
                    index=i,
                    status="ok",
                    planner=job.planner,
                    num_chargers=job.num_chargers,
                    longest_delay_s=planned.longest_delay(),
                    schedule=schedule_to_dict(
                        planned, algorithm=job.planner
                    ),
                )
            )
        assert all(r.ok for r in warm)
        assert [r.parity_key() for r in warm] == [
            r.parity_key() for r in cold
        ]
        assert sum(r.context_reused for r in warm) == len(jobs) - 1
        assert sum(r.cache["memo_hits"] for r in warm) > cold_hits


class TestDriftedTwins:
    """Same geometry, different residuals: the online-replanning shape.

    ``B`` is a copy of ``A`` whose batteries drained, so both land in
    one geometry group. Planning ``B`` must not rewrite the caller's
    ``A`` (the in-process pool passes it by reference), and a later
    job on ``A`` must plan on ``A``'s own residuals.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    def test_twin_does_not_leak_residuals(self, workers):
        a = random_wrsn(num_sensors=24, seed=401)
        b = a.copy()
        b.set_residuals(
            {
                sid: 0.3 * b.sensor(sid).residual_j
                for sid in b.all_sensor_ids()
            }
        )
        before = {sid: a.sensor(sid).residual_j for sid in a.all_sensor_ids()}
        pristine = {"a": a.copy(), "b": b.copy()}
        ids = tuple(a.all_sensor_ids()[:12])
        # The third job differs from the first in K, so it is planned
        # on its own rather than coalesced with it.
        jobs = [
            PlanJob(a, ids, 2, "Appro", "a-k2"),
            PlanJob(b, ids, 2, "Appro", "b-k2"),
            PlanJob(a, ids, 1, "Appro", "a-k1"),
        ]
        tickets, status = daemon_batch(jobs, workers=workers)
        assert status["counters"]["coalesced"] == 0
        for i, (job, ticket, name) in enumerate(
            zip(jobs, tickets, ("a", "b", "a"))
        ):
            result = ticket.job_result
            assert result.ok, result.error
            planned = run_planner(
                job.planner, pristine[name].copy(), ids, job.num_chargers
            )
            expected = JobResult(
                job_id=job.job_id,
                index=i,
                status="ok",
                planner=job.planner,
                num_chargers=job.num_chargers,
                longest_delay_s=planned.longest_delay(),
                schedule=schedule_to_dict(planned, algorithm=job.planner),
            )
            assert result.parity_key() == expected.parity_key()
        assert {
            sid: a.sensor(sid).residual_j for sid in a.all_sensor_ids()
        } == before
