"""Unit tests for :mod:`repro.network.routing`."""

import math

import pytest

from repro.geometry.point import Point
from repro.network.nodes import BaseStation, Depot
from repro.network.routing import (
    BS_NODE,
    build_routing_tree,
    relay_loads_bps,
)
from repro.network.sensor import Sensor
from repro.network.topology import WRSN, random_wrsn


def chain_wrsn():
    """BS at origin; sensors in a chain 0 -- 1 -- 2 going away from it.

    comm range 12 m, spacing 10 m: sensor 0 uplinks directly, 1 routes
    through 0, 2 through 1.
    """
    sensors = [
        Sensor(id=0, position=Point(10, 0), data_rate_bps=1000.0),
        Sensor(id=1, position=Point(20, 0), data_rate_bps=2000.0),
        Sensor(id=2, position=Point(30, 0), data_rate_bps=4000.0),
    ]
    origin = Point(0, 0)
    return WRSN(
        sensors=sensors,
        base_station=BaseStation(position=origin),
        depot=Depot(position=origin),
        comm_range_m=12.0,
    )


class TestBuildRoutingTree:
    def test_chain_parents(self):
        tree = build_routing_tree(chain_wrsn())
        assert tree.parent[0] == BS_NODE
        assert tree.parent[1] == 0
        assert tree.parent[2] == 1

    def test_chain_depths(self):
        tree = build_routing_tree(chain_wrsn())
        assert tree.depth[0] == 1
        assert tree.depth[1] == 2
        assert tree.depth[2] == 3

    def test_next_hop_distances(self):
        tree = build_routing_tree(chain_wrsn())
        assert tree.next_hop_distance_m[0] == pytest.approx(10.0)
        assert tree.next_hop_distance_m[1] == pytest.approx(10.0)

    def test_children_of(self):
        tree = build_routing_tree(chain_wrsn())
        children = tree.children_of()
        assert children[BS_NODE] == [0]
        assert children[0] == [1]

    def test_disconnected_sensor_falls_back_to_direct_uplink(self):
        sensors = [
            Sensor(id=0, position=Point(5, 0)),
            Sensor(id=1, position=Point(90, 90)),  # isolated
        ]
        net = WRSN(
            sensors=sensors,
            base_station=BaseStation(position=Point(0, 0)),
            depot=Depot(position=Point(0, 0)),
            comm_range_m=10.0,
        )
        tree = build_routing_tree(net)
        assert tree.parent[1] == BS_NODE
        assert tree.next_hop_distance_m[1] == pytest.approx(
            math.hypot(90, 90)
        )

    def test_every_sensor_has_a_route(self):
        net = random_wrsn(num_sensors=150, seed=3)
        tree = build_routing_tree(net)
        assert set(tree.parent) == set(net.all_sensor_ids())
        assert all(d >= 1 for d in tree.depth.values())

    def test_builds_no_data_graph(self):
        net = random_wrsn(num_sensors=150, seed=3)
        build_routing_tree(net)
        assert net._comm_graph is None

    def test_network_without_sensors(self):
        net = WRSN(
            sensors=[],
            base_station=BaseStation(position=Point(0, 0)),
            depot=Depot(position=Point(0, 0)),
        )
        tree = build_routing_tree(net)
        assert tree.parent == tree.next_hop_distance_m == tree.depth == {}


class TestRelayLoads:
    def test_chain_accumulation(self):
        net = chain_wrsn()
        loads = relay_loads_bps(net)
        # Sensor 2 is a leaf, 1 relays 2's rate, 0 relays 1's and 2's.
        assert loads[2] == 0.0
        assert loads[1] == pytest.approx(4000.0)
        assert loads[0] == pytest.approx(6000.0)

    def test_total_relayed_conservation(self):
        """Sum of relay loads equals sum over sensors of
        rate * (depth - 1): each bit is relayed once per extra hop."""
        net = random_wrsn(num_sensors=100, seed=9)
        tree = build_routing_tree(net)
        loads = relay_loads_bps(net, tree)
        expected = sum(
            s.data_rate_bps * (tree.depth[s.id] - 1) for s in net.sensors()
        )
        assert sum(loads.values()) == pytest.approx(expected)

    def test_energy_hole_shape(self):
        """Sensors adjacent to the BS carry (weakly) more relay load on
        average than the outermost ones — the Li-Mohapatra effect."""
        net = random_wrsn(num_sensors=300, seed=4)
        tree = build_routing_tree(net)
        loads = relay_loads_bps(net, tree)
        inner = [loads[i] for i in loads if tree.depth[i] == 1]
        outer = [loads[i] for i in loads if tree.depth[i] >= 3]
        if inner and outer:  # deployment-dependent, but seed-fixed
            assert sum(inner) / len(inner) > sum(outer) / len(outer)
