"""Unit tests for :mod:`repro.sim.trace`."""

import pytest

from repro.network.topology import random_wrsn
from repro.sim.simulator import MonitoringSimulation
from repro.sim.trace import RoundRecord, SimulationTrace, TraceRecorder


class TestTraceRecorder:
    def test_records_rounds(self):
        net = random_wrsn(num_sensors=60, seed=71)
        recorder = TraceRecorder("K-EDF")
        metrics = MonitoringSimulation(
            net, recorder, num_chargers=1, horizon_s=20 * 86400.0
        ).run()
        assert len(recorder.trace) == metrics.num_rounds
        assert recorder.trace.algorithm == "K-EDF"
        for record, delay in zip(
            recorder.trace.rounds, metrics.round_longest_delays_s
        ):
            assert record.longest_delay_s == pytest.approx(delay)

    def test_request_counts_match(self):
        net = random_wrsn(num_sensors=60, seed=72)
        recorder = TraceRecorder("NETWRAP")
        metrics = MonitoringSimulation(
            net, recorder, num_chargers=1, horizon_s=15 * 86400.0
        ).run()
        assert recorder.trace.request_counts() == (
            metrics.round_request_counts
        )

    def test_residual_stats_sane(self):
        net = random_wrsn(num_sensors=60, seed=73)
        recorder = TraceRecorder("K-EDF")
        MonitoringSimulation(
            net, recorder, num_chargers=1, horizon_s=15 * 86400.0
        ).run()
        for record in recorder.trace.rounds:
            assert 0.0 <= record.min_residual_j <= record.mean_residual_j
            # Requests are below the 20% threshold.
            assert record.mean_residual_j < 0.2 * 10_800.0

    def test_wraps_callable(self):
        def my_planner(network, request_ids, num_chargers, **kwargs):
            raise AssertionError("not called")

        assert TraceRecorder(my_planner).trace.algorithm == "my_planner"
        assert TraceRecorder("AA").trace.algorithm == "AA"


class TestSimulationTrace:
    def make_trace(self):
        trace = SimulationTrace(algorithm="X")
        for i, delay in enumerate([10.0, 12.0, 11.0, 30.0, 35.0, 40.0]):
            trace.rounds.append(
                RoundRecord(
                    index=i, num_requests=i + 1, longest_delay_s=delay,
                    min_residual_j=1.0, mean_residual_j=2.0,
                )
            )
        return trace

    def test_divergence_heuristic(self):
        trace = self.make_trace()
        assert trace.is_diverging(window=3)
        stable = SimulationTrace(algorithm="Y")
        for i in range(10):
            stable.rounds.append(
                RoundRecord(
                    index=i, num_requests=1, longest_delay_s=10.0,
                    min_residual_j=0.0, mean_residual_j=0.0,
                )
            )
        assert not stable.is_diverging(window=3)

    def test_too_short_for_divergence(self):
        trace = SimulationTrace(algorithm="Z")
        assert not trace.is_diverging(window=5)

    def test_jsonl_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.jsonl"
        trace.save_jsonl(path)
        loaded = SimulationTrace.load_jsonl(path, algorithm="X")
        assert loaded.rounds == trace.rounds

    def test_empty_jsonl(self, tmp_path):
        trace = SimulationTrace(algorithm="E")
        path = tmp_path / "empty.jsonl"
        trace.save_jsonl(path)
        loaded = SimulationTrace.load_jsonl(path)
        assert len(loaded) == 0
