"""WRSN topology container and the paper's random deployment generator.

A :class:`WRSN` owns the sensors, the base station, the MCV depot and
the communication range that induces the data-collection graph
``G_s = (V, E)`` of Section III-A. :func:`random_wrsn` builds instances
matching the evaluation settings of Section VI-A: ``n`` sensors uniform
over a 100 × 100 m² field, base station and depot co-located at the
center, 10.8 kJ batteries, and sensing rates uniform in
``[b_min, b_max]``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping, Optional

import networkx as nx
import numpy as np

from repro.energy.battery import DEFAULT_CAPACITY_J, Battery
from repro.geometry.deployment import Field, uniform_deployment
from repro.geometry.disk_index import DiskIndex
from repro.geometry.point import Point
from repro.network.nodes import BaseStation, Depot
from repro.network.sensor import Sensor

#: Default sensor-to-sensor transmission range for the data graph.
DEFAULT_COMM_RANGE_M = 20.0

#: Paper defaults for the sensing-rate interval (Section VI-A), in bps.
DEFAULT_B_MIN_BPS = 1_000.0
DEFAULT_B_MAX_BPS = 50_000.0

#: Candidate pairs turned into Python ints per slice of the comm-graph
#: build.
_EDGE_SLICE = 4096


class WRSN:
    """A wireless rechargeable sensor network instance.

    Args:
        sensors: the stationary sensors; ids must be unique.
        base_station: the data sink.
        depot: home of the mobile chargers.
        comm_range_m: transmission range defining edges of the data
            graph.
        field: the monitoring field (used for validation and display).
    """

    def __init__(
        self,
        sensors: Iterable[Sensor],
        base_station: BaseStation,
        depot: Depot,
        comm_range_m: float = DEFAULT_COMM_RANGE_M,
        field: Optional[Field] = None,
    ):
        if comm_range_m <= 0:
            raise ValueError(f"comm range must be positive: {comm_range_m}")
        if field is None:
            field = Field()
        self._sensors: Dict[int, Sensor] = {}
        for sensor in sensors:
            if sensor.id in self._sensors:
                raise ValueError(f"duplicate sensor id {sensor.id}")
            self._sensors[sensor.id] = sensor
        self.base_station = base_station
        self.depot = depot
        self.comm_range_m = float(comm_range_m)
        self.field = field
        self._comm_graph: Optional[nx.Graph] = None
        self._positions: Optional[Mapping[int, Point]] = None

    def __getstate__(self) -> Dict[str, Any]:
        # The read-only positions view does not pickle; it is rebuilt
        # on first use after unpickling.
        state = self.__dict__.copy()
        state["_positions"] = None
        return state

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sensors)

    def __contains__(self, sensor_id: int) -> bool:
        return sensor_id in self._sensors

    def sensor(self, sensor_id: int) -> Sensor:
        """The sensor with the given id."""
        return self._sensors[sensor_id]

    def sensors(self) -> List[Sensor]:
        """All sensors, ordered by id."""
        return [self._sensors[i] for i in sorted(self._sensors)]

    def all_sensor_ids(self) -> List[int]:
        """All sensor ids in ascending order."""
        return sorted(self._sensors)

    def position_of(self, sensor_id: int) -> Point:
        """Position of one sensor."""
        return self._sensors[sensor_id].position

    def positions(self) -> Mapping[int, Point]:
        """Read-only mapping of sensor id to position.

        Built once, on first use: positions are static for the
        network's lifetime, so every caller shares the one map.
        """
        if self._positions is None:
            self._positions = MappingProxyType(
                {i: s.position for i, s in self._sensors.items()}
            )
        return self._positions

    # ------------------------------------------------------------------
    # Data-collection graph
    # ------------------------------------------------------------------

    def comm_graph(self) -> nx.Graph:
        """The data graph ``G_s``: an edge joins sensors within the
        transmission range of each other, weighted by distance.

        Cached; the topology is static. Each edge is added once, from
        its endpoint earlier in node order, in ascending (earlier,
        later) order, so every adjacency list holds the earlier
        neighbours then the later ones, each in node order: the order
        ``Graph.copy()`` rebuilds, and the order in which
        :func:`repro.network.routing.build_routing_tree` reads its own
        neighbour rows (it builds no graph).
        """
        if self._comm_graph is None:
            graph = nx.Graph()
            graph.add_nodes_from(self._sensors)
            positions = self.positions()
            labels = list(positions)
            rows, cols = DiskIndex(positions).self_pairs_within(
                self.comm_range_m
            )
            upper = cols > rows
            rows, cols = rows[upper], cols[upper]
            # Slices bound the Python ints alive at once; the edge
            # order (hence Dijkstra's tie-breaks) is the one-shot order.
            for start in range(0, len(rows), _EDGE_SLICE):
                stop = start + _EDGE_SLICE
                for i, j in zip(
                    rows[start:stop].tolist(), cols[start:stop].tolist()
                ):
                    sid, other = labels[i], labels[j]
                    dist = positions[sid].distance_to(positions[other])
                    graph.add_edge(sid, other, weight=dist)
            self._comm_graph = graph
        return self._comm_graph

    # ------------------------------------------------------------------
    # Mutation used by the simulator
    # ------------------------------------------------------------------

    def set_residuals(self, residuals_j: Mapping[int, float]) -> None:
        """Overwrite battery levels (used to stage scheduling instances)."""
        for sid, level in residuals_j.items():
            sensor = self._sensors[sid]
            if not 0.0 <= level <= sensor.battery.capacity_j:
                raise ValueError(
                    f"residual {level} J out of range for sensor {sid}"
                )
            sensor.battery.level_j = float(level)

    def copy(self) -> "WRSN":
        """Independent copy (batteries cloned, positions shared)."""
        return WRSN(
            sensors=[s.copy() for s in self._sensors.values()],
            base_station=self.base_station,
            depot=self.depot,
            comm_range_m=self.comm_range_m,
            field=self.field,
        )


def random_wrsn(
    num_sensors: int,
    field: Optional[Field] = None,
    seed: int = 0,
    capacity_j: float = DEFAULT_CAPACITY_J,
    b_min_bps: float = DEFAULT_B_MIN_BPS,
    b_max_bps: float = DEFAULT_B_MAX_BPS,
    comm_range_m: float = DEFAULT_COMM_RANGE_M,
    initial_fraction: float = 1.0,
    depot_position: Optional[Point] = None,
) -> WRSN:
    """Generate a WRSN instance with the paper's evaluation settings.

    Args:
        num_sensors: network size ``n`` (the paper sweeps 200–1200).
        field: monitoring field, default 100 × 100 m².
        seed: RNG seed for reproducible instances.
        capacity_j: battery capacity, default 10.8 kJ.
        b_min_bps / b_max_bps: sensing-rate interval; each sensor draws
            uniformly from it.
        comm_range_m: transmission range of the data graph.
        initial_fraction: initial battery level as a fraction of
            capacity (1.0 = all full).
        depot_position: depot/BS location; defaults to the field
            center, as in the paper.

    Returns:
        A fully-initialised :class:`WRSN`.
    """
    if num_sensors <= 0:
        raise ValueError(f"num_sensors must be positive, got {num_sensors}")
    if not 0.0 <= initial_fraction <= 1.0:
        raise ValueError(
            f"initial_fraction must be in [0, 1], got {initial_fraction}"
        )
    if b_min_bps < 0 or b_max_bps < b_min_bps:
        raise ValueError(
            f"invalid rate interval [{b_min_bps}, {b_max_bps}]"
        )
    if field is None:
        field = Field()
    rng = np.random.default_rng(seed)
    points = uniform_deployment(
        num_sensors, field=field, seed=int(rng.integers(0, 2**31))
    )
    rates = rng.uniform(b_min_bps, b_max_bps, num_sensors)
    sensors = [
        Sensor(
            id=i,
            position=points[i],
            battery=Battery(
                capacity_j=capacity_j, level_j=capacity_j * initial_fraction
            ),
            data_rate_bps=float(rates[i]),
        )
        for i in range(num_sensors)
    ]
    center = depot_position if depot_position is not None else field.center
    return WRSN(
        sensors=sensors,
        base_station=BaseStation(position=center),
        depot=Depot(position=center),
        comm_range_m=comm_range_m,
        field=field,
    )
