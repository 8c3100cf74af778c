"""Parity of the array-backed simulator paths with the retired ones.

The offline and online monitoring loops run on
:class:`~repro.sim.simulator.BatteryTrajectories`, and the routing tree
walks the data graph without copying it. Both must reproduce the
per-sensor loops and the copy-based networkx Dijkstra of
``tests/_legacy_simulator.py`` exactly: the same per-round delays and
request counts, the same per-sensor dead time to the last bit, the same
fault metrics and the same parents, depths and next-hop distances.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.energy.battery import Battery
from repro.energy.policies import PARTIAL_80
from repro.geometry.point import Point
from repro.network.nodes import BaseStation, Depot
from repro.network.routing import BS_NODE, build_routing_tree
from repro.network.sensor import Sensor
from repro.network.topology import WRSN, random_wrsn
from repro.sim.faults.specs import (
    ChargeDroop,
    FaultPlan,
    MCVBreakdown,
    RequestSurge,
    SensorFailure,
)
from repro.sim.online import OnlineMonitoringSimulation
from repro.sim.simulator import MonitoringSimulation
from tests._legacy_simulator import (
    LegacyMonitoringSimulation,
    LegacyOnlineMonitoringSimulation,
    legacy_build_routing_tree,
)

HORIZON_S = 40 * 86400.0

#: Hardware failures, request surges, breakdowns and charge droop.
FAILURES_AND_SURGE = FaultPlan(
    specs=(
        SensorFailure(probability=0.3),
        RequestSurge(probability=0.5, min_fraction=0.02, max_fraction=0.05),
        MCVBreakdown(probability=0.2),
        ChargeDroop(probability=0.5),
    ),
    seed=4,
    name="attrition-surge",
)

SETUPS = {
    "no-faults": {},
    "failures-and-surge": {"fault_plan": FAILURES_AND_SURGE},
    "partial-charge": {"policy": PARTIAL_80},
}


def depleted_network(num_sensors: int = 120, seed: int = 11) -> WRSN:
    """Residuals in [0, 30%] of capacity: some sensors start dead and
    others die before their round ends, so dead time accrues."""
    net = random_wrsn(num_sensors=num_sensors, seed=seed)
    rng = np.random.default_rng(seed)
    net.set_residuals(
        {
            sid: float(rng.uniform(0.0, 0.3)) * net.sensor(sid).capacity_j
            for sid in net.all_sensor_ids()
        }
    )
    return net


def assert_same_metrics(got, want) -> None:
    assert got.round_longest_delays_s == want.round_longest_delays_s
    assert got.round_request_counts == want.round_request_counts
    assert got.dead_time_s == want.dead_time_s
    assert got.sensors_failed == want.sensors_failed
    assert got.round_surged == want.round_surged
    assert got.round_repairs == want.round_repairs
    assert got.round_deferred == want.round_deferred
    assert got.fault_rounds == want.fault_rounds
    assert got.fault_extra_dead_time_s == want.fault_extra_dead_time_s
    assert got == want


class TestOfflineParity:
    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_metrics_identical(self, setup):
        net = depleted_network()
        kwargs = dict(num_chargers=2, horizon_s=HORIZON_S, **SETUPS[setup])
        got = MonitoringSimulation(net, "K-EDF", **kwargs).run()
        want = LegacyMonitoringSimulation(net, "K-EDF", **kwargs).run()
        assert got.num_rounds > 0 and got.total_dead_time_s > 0
        if setup == "failures-and-surge":
            assert got.sensors_failed and got.round_surged
            assert sum(got.round_repairs) > 0
            assert got.fault_extra_dead_time_s > 0
        assert_same_metrics(got, want)

    def test_appro_metrics_identical(self):
        net = depleted_network(num_sensors=200, seed=5)
        kwargs = dict(num_chargers=2, horizon_s=HORIZON_S)
        assert_same_metrics(
            MonitoringSimulation(net, "Appro", **kwargs).run(),
            LegacyMonitoringSimulation(net, "Appro", **kwargs).run(),
        )


class TestOnlineParity:
    @pytest.mark.parametrize("setup", ["no-faults", "failures-and-surge"])
    def test_metrics_identical(self, setup):
        net = depleted_network()
        kwargs = dict(num_chargers=2, horizon_s=HORIZON_S, **SETUPS[setup])
        got = OnlineMonitoringSimulation(net, **kwargs).run()
        want = LegacyOnlineMonitoringSimulation(net, **kwargs).run()
        assert got.num_rounds > 0 and got.total_dead_time_s > 0
        if setup == "failures-and-surge":
            assert got.sensors_failed and got.round_surged
            assert sum(got.round_repairs) > 0
        assert got.request_delays_s == want.request_delays_s
        assert_same_metrics(got, want)

    def test_deadline_metrics_identical(self):
        net = depleted_network()
        kwargs = dict(num_chargers=2, horizon_s=HORIZON_S, deadline_s=3600.0)
        got = OnlineMonitoringSimulation(net, **kwargs).run()
        want = LegacyOnlineMonitoringSimulation(net, **kwargs).run()
        assert got.deadline_total > 0
        assert_same_metrics(got, want)


def lattice_network(order_seed: int, comm_range_m: float) -> WRSN:
    """Sensors on a 10 m lattice around the base station, inserted in a
    shuffled id order: equal-length paths make Dijkstra's tie-breaks
    decide the parents."""
    points = [
        Point(50.0 + 10.0 * dx, 50.0 + 10.0 * dy)
        for dx in range(-4, 5)
        for dy in range(-4, 5)
        if (dx, dy) != (0, 0)
    ]
    ids = list(range(len(points)))
    random.Random(order_seed).shuffle(ids)
    sensors = [
        Sensor(id=sid, position=points[sid], battery=Battery())
        for sid in ids
    ]
    center = Point(50.0, 50.0)
    return WRSN(
        sensors=sensors,
        base_station=BaseStation(position=center),
        depot=Depot(position=center),
        comm_range_m=comm_range_m,
    )


def sparse_network() -> WRSN:
    """A random field with a short range: some sensors have no
    multi-hop path to the base station and uplink directly."""
    return random_wrsn(num_sensors=60, seed=8, comm_range_m=9.0)


def assert_same_tree(network: WRSN) -> None:
    got = build_routing_tree(network)
    want = legacy_build_routing_tree(network)
    assert list(got.parent.items()) == list(want.parent.items())
    assert got.next_hop_distance_m == want.next_hop_distance_m
    assert got.depth == want.depth


class TestRoutingTreeParity:
    @pytest.mark.parametrize(
        "num_sensors,seed", [(200, 1), (200, 2), (1000, 3), (1000, 4)]
    )
    def test_paper_fields(self, num_sensors, seed):
        assert_same_tree(random_wrsn(num_sensors=num_sensors, seed=seed))

    @pytest.mark.parametrize("order_seed", [0, 1, 2])
    @pytest.mark.parametrize("comm_range_m", [10.0, 15.0, 20.0])
    def test_lattice_ties_in_shuffled_order(self, order_seed, comm_range_m):
        assert_same_tree(lattice_network(order_seed, comm_range_m))

    def test_sparse_network_direct_uplink_fallback(self):
        net = sparse_network()
        tree = build_routing_tree(net)
        bs = net.base_station.position
        fallback = [
            sid
            for sid, par in tree.parent.items()
            if par == BS_NODE
            and bs.distance_to(net.position_of(sid)) > net.comm_range_m
        ]
        assert fallback, "the sparse field must exercise the fallback"
        assert all(tree.depth[sid] == 1 for sid in fallback)
        assert_same_tree(net)
