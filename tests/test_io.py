"""Unit tests for :mod:`repro.io`."""

import json

import numpy as np
import pytest

from repro.baselines.kedf import kedf_schedule
from repro.core.appro import appro_schedule
from repro.io import (
    SCHEDULE_FORMAT,
    WRSN_FORMAT,
    load_schedule_report,
    load_wrsn,
    save_schedule,
    save_wrsn,
    schedule_to_dict,
    wrsn_from_dict,
    wrsn_to_dict,
)
from repro.network.topology import random_wrsn


class TestWrsnRoundTrip:
    def test_dict_round_trip(self, depleted_net):
        data = wrsn_to_dict(depleted_net)
        clone = wrsn_from_dict(data)
        assert clone.positions() == depleted_net.positions()
        assert clone.comm_range_m == depleted_net.comm_range_m
        assert clone.depot.position == depleted_net.depot.position
        for sid in depleted_net.all_sensor_ids():
            assert clone.sensor(sid).residual_j == pytest.approx(
                depleted_net.sensor(sid).residual_j
            )
            assert clone.sensor(sid).data_rate_bps == pytest.approx(
                depleted_net.sensor(sid).data_rate_bps
            )

    def test_file_round_trip(self, depleted_net, tmp_path):
        path = tmp_path / "net.json"
        save_wrsn(depleted_net, path)
        clone = load_wrsn(path)
        assert len(clone) == len(depleted_net)
        # File is valid JSON with the format tag.
        raw = json.loads(path.read_text())
        assert raw["format"] == WRSN_FORMAT

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not a"):
            wrsn_from_dict({"format": "something-else"})

    def test_json_is_plain_data(self, small_net):
        text = json.dumps(wrsn_to_dict(small_net))
        assert "python" not in text.lower()


class TestScheduleSerialization:
    def test_core_schedule_report(self, depleted_net, tmp_path):
        requests = depleted_net.all_sensor_ids()
        schedule = appro_schedule(depleted_net, requests, 2)
        path = tmp_path / "sched.json"
        save_schedule(schedule, path, algorithm="Appro")
        report = load_schedule_report(path)
        assert report["format"] == SCHEDULE_FORMAT
        assert report["algorithm"] == "Appro"
        assert report["kind"] == "multi-node"
        assert report["longest_delay_s"] == pytest.approx(
            schedule.longest_delay()
        )
        assert len(report["vehicles"]) == 2
        # Every requested sensor is charged by some stop.
        charged = {
            sid
            for veh in report["vehicles"]
            for stop in veh["stops"]
            for sid in stop["charges"]
        }
        assert charged == set(requests)

    def test_baseline_schedule_report(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        schedule = kedf_schedule(depleted_net, requests, 2)
        report = schedule_to_dict(schedule, algorithm="K-EDF")
        assert report["kind"] == "one-to-one"
        stops = [s for v in report["vehicles"] for s in v["stops"]]
        assert len(stops) == len(requests)
        for stop in stops:
            assert stop["charges"] == [stop["location"]]

    def test_stop_times_monotone_per_vehicle(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        schedule = appro_schedule(depleted_net, requests, 2)
        report = schedule_to_dict(schedule)
        for veh in report["vehicles"]:
            finishes = [s["finish_s"] for s in veh["stops"]]
            assert finishes == sorted(finishes)

    def test_wrong_schedule_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError):
            load_schedule_report(path)


class TestWaitField:
    """v2 of the schedule format carries per-stop ``wait_s``."""

    def test_format_was_bumped_for_wait_s(self):
        assert SCHEDULE_FORMAT == "repro-schedule/2"

    def _conflicted_schedule(self, depleted_net):
        from repro.core.conflicts import resolve_conflicts

        requests = depleted_net.all_sensor_ids()
        schedule = appro_schedule(
            depleted_net, requests, 2, enforce_feasibility=False
        )
        resolve_conflicts(schedule)
        return schedule

    def test_wait_s_round_trips(self, depleted_net, tmp_path):
        schedule = self._conflicted_schedule(depleted_net)
        path = tmp_path / "sched.json"
        save_schedule(schedule, path, algorithm="Appro")
        report = load_schedule_report(path)
        for veh in report["vehicles"]:
            for stop in veh["stops"]:
                node = stop["location"]
                assert stop["wait_s"] == schedule.wait[node]
                # The invariant a consumer would otherwise re-derive:
                assert stop["start_s"] == pytest.approx(
                    stop["arrival_s"] + stop["wait_s"]
                )

    def test_inserted_wait_is_visible(self, depleted_net):
        schedule = self._conflicted_schedule(depleted_net)
        schedule.add_wait(schedule.scheduled_stops()[0], 123.5)
        report = schedule_to_dict(schedule)
        waits = [
            s["wait_s"] for v in report["vehicles"] for s in v["stops"]
        ]
        assert any(w >= 123.5 for w in waits)

    def test_baseline_stops_report_zero_wait(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        schedule = kedf_schedule(depleted_net, requests, 2)
        report = schedule_to_dict(schedule)
        for veh in report["vehicles"]:
            for stop in veh["stops"]:
                assert stop["wait_s"] == 0.0
                assert stop["start_s"] == stop["arrival_s"]
