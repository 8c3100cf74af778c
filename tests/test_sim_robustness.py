"""Unit tests for :mod:`repro.sim.robustness`."""

import math

import numpy as np
import pytest

from repro.core.appro import appro_schedule
from repro.sim.robustness import (
    RobustnessReport,
    minimum_pairwise_slack,
    perturbed_execution,
    robustness_report,
)


@pytest.fixture
def schedule(depleted_net):
    return appro_schedule(
        depleted_net, depleted_net.all_sensor_ids(), num_chargers=2
    )


class TestPerturbedExecution:
    def test_zero_noise_matches_plan(self, schedule):
        outcome = perturbed_execution(
            schedule, travel_noise=0.0, charge_noise=0.0,
            rng=np.random.default_rng(0),
        )
        assert outcome.feasible
        assert outcome.longest_delay_s == pytest.approx(
            schedule.longest_delay()
        )
        planned = {
            n: schedule.stop_interval(n)
            for n in schedule.scheduled_stops()
        }
        for stop in outcome.stops:
            ps, pf = planned[stop.node]
            assert stop.start_s == pytest.approx(ps, abs=1e-6)
            assert stop.finish_s == pytest.approx(pf, abs=1e-6)

    def test_invalid_noise(self, schedule):
        with pytest.raises(ValueError):
            perturbed_execution(schedule, travel_noise=1.5)
        with pytest.raises(ValueError):
            perturbed_execution(schedule, charge_noise=-0.1)

    def test_noise_changes_delay(self, schedule):
        a = perturbed_execution(
            schedule, rng=np.random.default_rng(1)
        ).longest_delay_s
        b = perturbed_execution(
            schedule, rng=np.random.default_rng(2)
        ).longest_delay_s
        assert a != b

    def test_stop_count_preserved(self, schedule):
        outcome = perturbed_execution(
            schedule, rng=np.random.default_rng(3)
        )
        assert len(outcome.stops) == len(schedule.scheduled_stops())


class TestSlackAndReport:
    def test_min_slack_nonnegative_on_feasible_schedule(self, schedule):
        slack = minimum_pairwise_slack(schedule)
        assert slack >= -1e-9 or math.isinf(slack)

    def test_report_fields(self, schedule):
        report = robustness_report(
            schedule, trials=20, travel_noise=0.1, charge_noise=0.05,
            seed=7,
        )
        assert report.trials == 20
        assert 0.0 <= report.violation_probability <= 1.0
        assert report.planned_longest_delay_s == pytest.approx(
            schedule.longest_delay()
        )
        assert report.mean_longest_delay_s > 0
        assert "P(violation)" in str(report)

    def test_report_deterministic_with_seed(self, schedule):
        a = robustness_report(schedule, trials=10, seed=5)
        b = robustness_report(schedule, trials=10, seed=5)
        assert a.violation_probability == b.violation_probability
        assert a.mean_longest_delay_s == pytest.approx(
            b.mean_longest_delay_s
        )

    def test_invalid_trials(self, schedule):
        with pytest.raises(ValueError):
            robustness_report(schedule, trials=0)

    def test_str_without_shared_disk_pairs_reads_none(self):
        report = RobustnessReport(
            trials=3,
            violation_probability=0.0,
            mean_longest_delay_s=7200.0,
            planned_longest_delay_s=3600.0,
            min_pairwise_slack_s=math.inf,
        )
        text = str(report)
        assert "min_slack=none" in text
        assert "inf" not in text

    def test_str_prints_finite_slack_in_seconds(self):
        report = RobustnessReport(
            trials=3,
            violation_probability=0.0,
            mean_longest_delay_s=7200.0,
            planned_longest_delay_s=3600.0,
            min_pairwise_slack_s=12.34,
        )
        assert str(report).endswith("min_slack=12.3s")


def _brute_force_slack(schedule):
    """Reference all-pairs implementation the sweep must match."""
    best = math.inf
    stops = schedule.scheduled_stops()
    for i, u in enumerate(stops):
        for v in stops[i + 1:]:
            if schedule.tour_of[u] == schedule.tour_of[v]:
                continue
            if not (schedule.coverage[u] & schedule.coverage[v]):
                continue
            su, fu = schedule.stop_interval(u)
            sv, fv = schedule.stop_interval(v)
            best = min(best, max(su - fv, sv - fu))
    return best


class TestSlackSweepEquivalence:
    def test_matches_brute_force_on_appro(self, schedule):
        swept = minimum_pairwise_slack(schedule)
        brute = _brute_force_slack(schedule)
        if math.isinf(brute):
            assert math.isinf(swept)
        else:
            assert swept == pytest.approx(brute)

    def test_matches_brute_force_on_larger_instances(self):
        from repro.network.topology import random_wrsn

        for seed in (3, 4, 5):
            net = random_wrsn(num_sensors=80, seed=seed)
            rng = np.random.default_rng(seed)
            net.set_residuals(
                {
                    sid: float(rng.uniform(0.0, 0.2))
                    * net.sensor(sid).capacity_j
                    for sid in net.all_sensor_ids()
                }
            )
            sched = appro_schedule(
                net, net.all_sensor_ids(), num_chargers=3
            )
            assert len(sched.scheduled_stops()) > 1
            swept = minimum_pairwise_slack(sched)
            brute = _brute_force_slack(sched)
            if math.isinf(brute):
                assert math.isinf(swept)
            else:
                assert swept == pytest.approx(brute), f"seed {seed}"

    def test_matches_brute_force_with_artificial_overlaps(self, schedule):
        """Negative slack (a planted violation) is reported exactly."""
        noisy = schedule.copy()
        # Pull every second tour 30 minutes earlier by cancelling its
        # waits, manufacturing cross-tour proximity/overlap.
        for k, tour in enumerate(noisy.tours):
            if k % 2 == 0:
                continue
            for node in tour:
                noisy.wait[node] = max(0.0, noisy.wait[node] - 1800.0)
        swept = minimum_pairwise_slack(noisy)
        brute = _brute_force_slack(noisy)
        if math.isinf(brute):
            assert math.isinf(swept)
        else:
            assert swept == pytest.approx(brute)

    def test_single_tour_has_infinite_slack(self, depleted_net):
        sched = appro_schedule(
            depleted_net, depleted_net.all_sensor_ids(), num_chargers=1
        )
        assert math.isinf(minimum_pairwise_slack(sched))


class TestDefaultSeeds:
    def test_bare_report_is_deterministic(self, schedule):
        a = robustness_report(schedule, trials=5)
        b = robustness_report(schedule, trials=5)
        assert a.violation_probability == b.violation_probability
        assert a.mean_longest_delay_s == b.mean_longest_delay_s

    def test_bare_perturbed_execution_is_deterministic(self, schedule):
        a = perturbed_execution(schedule)
        b = perturbed_execution(schedule)
        assert a.longest_delay_s == b.longest_delay_s
        assert a.stops == b.stops
