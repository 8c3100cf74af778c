"""Unit tests for :mod:`repro.network.topology`."""

import pickle

import networkx as nx
import numpy as np
import pytest

from repro.energy.battery import Battery
from repro.geometry.deployment import Field
from repro.geometry.disk_index import DiskIndex
from repro.geometry.point import Point
from repro.network.nodes import BaseStation, Depot
from repro.network.sensor import Sensor
from repro.network.topology import _EDGE_SLICE, WRSN, random_wrsn


def tiny_wrsn():
    sensors = [
        Sensor(id=0, position=Point(0, 0)),
        Sensor(id=1, position=Point(10, 0)),
        Sensor(id=2, position=Point(50, 50)),
    ]
    center = Point(25, 25)
    return WRSN(
        sensors=sensors,
        base_station=BaseStation(position=center),
        depot=Depot(position=center),
        comm_range_m=15.0,
    )


class TestWRSN:
    def test_len_and_contains(self):
        net = tiny_wrsn()
        assert len(net) == 3
        assert 0 in net and 2 in net and 7 not in net

    def test_duplicate_ids_rejected(self):
        sensors = [
            Sensor(id=0, position=Point(0, 0)),
            Sensor(id=0, position=Point(1, 1)),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            WRSN(
                sensors=sensors,
                base_station=BaseStation(position=Point(0, 0)),
                depot=Depot(position=Point(0, 0)),
            )

    def test_invalid_comm_range(self):
        with pytest.raises(ValueError):
            WRSN(
                sensors=[],
                base_station=BaseStation(position=Point(0, 0)),
                depot=Depot(position=Point(0, 0)),
                comm_range_m=0.0,
            )

    def test_accessors(self):
        net = tiny_wrsn()
        assert net.sensor(1).id == 1
        assert net.all_sensor_ids() == [0, 1, 2]
        assert net.position_of(2) == Point(50, 50)
        assert set(net.positions()) == {0, 1, 2}

    def test_comm_graph_edges(self):
        net = tiny_wrsn()
        graph = net.comm_graph()
        assert graph.has_edge(0, 1)  # 10 m apart, range 15 m
        assert not graph.has_edge(0, 2)
        assert graph[0][1]["weight"] == pytest.approx(10.0)

    def test_comm_graph_cached(self):
        net = tiny_wrsn()
        assert net.comm_graph() is net.comm_graph()

    def test_comm_graph_slices_keep_the_one_shot_edge_order(self):
        """The sliced build inserts every edge, with its weight, in the
        order one pass over all candidate pairs gives."""
        net = random_wrsn(1000, seed=1)
        positions = net.positions()
        labels = list(positions)
        rows, cols = DiskIndex(positions).pairs_within(
            list(positions.values()), net.comm_range_m
        )
        ids = np.asarray(labels)
        upper = ids[cols] > ids[rows]
        reference = nx.Graph()
        reference.add_nodes_from(labels)
        for i, j in zip(rows[upper].tolist(), cols[upper].tolist()):
            reference.add_edge(
                labels[i], labels[j],
                weight=positions[labels[i]].distance_to(positions[labels[j]]),
            )
        got = list(net.comm_graph().edges(data="weight"))
        assert len(got) > _EDGE_SLICE
        assert got == list(reference.edges(data="weight"))

    def test_set_residuals(self):
        net = tiny_wrsn()
        net.set_residuals({0: 100.0})
        assert net.sensor(0).residual_j == 100.0

    def test_set_residuals_validates(self):
        net = tiny_wrsn()
        with pytest.raises(ValueError):
            net.set_residuals({0: -1.0})
        with pytest.raises(ValueError):
            net.set_residuals({0: 1e9})

    def test_copy_is_deep_for_batteries(self):
        net = tiny_wrsn()
        clone = net.copy()
        clone.set_residuals({0: 5.0})
        assert net.sensor(0).residual_j != 5.0

    def test_positions_built_once_and_read_only(self):
        net = tiny_wrsn()
        positions = net.positions()
        assert net.positions() is positions
        assert dict(positions) == {
            s.id: s.position for s in net.sensors()
        }
        with pytest.raises(TypeError):
            positions[0] = Point(1.0, 1.0)

    def test_copy_gets_its_own_positions_map(self):
        net = tiny_wrsn()
        clone = net.copy()
        assert clone.positions() is not net.positions()
        assert clone.positions() == net.positions()
        # The points themselves are immutable and shared.
        assert all(
            clone.positions()[sid] is net.positions()[sid]
            for sid in net.all_sensor_ids()
        )

    def test_pickles_after_positions_built(self):
        net = tiny_wrsn()
        net.positions()
        clone = pickle.loads(pickle.dumps(net))
        assert clone.positions() == net.positions()


class TestRandomWrsn:
    def test_paper_defaults(self):
        net = random_wrsn(num_sensors=50, seed=1)
        assert len(net) == 50
        # BS and depot co-located at the field center.
        assert net.base_station.position == Point(50, 50)
        assert net.depot.position == Point(50, 50)
        sensor = net.sensor(0)
        assert sensor.capacity_j == 10_800.0
        assert 1_000.0 <= sensor.data_rate_bps <= 50_000.0

    def test_deterministic(self):
        a = random_wrsn(num_sensors=30, seed=5)
        b = random_wrsn(num_sensors=30, seed=5)
        assert a.positions() == b.positions()
        assert [s.data_rate_bps for s in a.sensors()] == [
            s.data_rate_bps for s in b.sensors()
        ]

    def test_initial_fraction(self):
        net = random_wrsn(num_sensors=10, seed=1, initial_fraction=0.5)
        assert all(
            s.battery.fraction == pytest.approx(0.5) for s in net.sensors()
        )

    def test_sensors_inside_field(self):
        field = Field(60, 60)
        net = random_wrsn(num_sensors=40, field=field, seed=2)
        assert all(field.contains(s.position) for s in net.sensors())

    def test_custom_depot(self):
        net = random_wrsn(num_sensors=5, seed=1, depot_position=Point(0, 0))
        assert net.depot.position == Point(0, 0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            random_wrsn(num_sensors=0)
        with pytest.raises(ValueError):
            random_wrsn(num_sensors=5, initial_fraction=2.0)
        with pytest.raises(ValueError):
            random_wrsn(num_sensors=5, b_min_bps=10.0, b_max_bps=5.0)
