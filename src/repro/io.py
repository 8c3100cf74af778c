"""Instance and schedule serialization (JSON).

Reproducibility plumbing: save a :class:`~repro.network.topology.WRSN`
instance (positions, rates, battery states, infrastructure) or a
computed schedule to a JSON document, and load it back bit-exactly.
Used by the CLI to pass instances between commands and by users to
archive the exact instances behind reported numbers.

The format is versioned (``"format": "repro-wrsn/1"``) and intentionally
flat — no pickling, no code execution on load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.core.schedule import ChargingSchedule
from repro.energy.battery import Battery
from repro.geometry.deployment import Field
from repro.geometry.point import Point
from repro.network.nodes import BaseStation, Depot
from repro.network.sensor import Sensor
from repro.network.topology import WRSN
from repro.pipeline.planner import get_planner, planner_names

WRSN_FORMAT = "repro-wrsn/1"
#: v2 adds per-stop ``wait_s`` — the conflict-resolution idle inserted
#: before charging — so a consumer reconstructing a timeline can
#: distinguish a scheduled wait from slow travel without re-deriving it
#: from ``start_s - arrival_s`` float arithmetic.
SCHEDULE_FORMAT = "repro-schedule/2"
#: One planning job for the planning daemon (:mod:`repro.serve`): planner
#: name, request set, ``K``, and a network carried inline, by label
#: reference, or by instance-file path.
JOB_FORMAT = "repro-job/1"
#: One planning-daemon result: job id, status, the ``repro-schedule/2``
#: document, attempt count and cache/timing diagnostics.
RESULT_FORMAT = "repro-result/1"

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# JSON Lines
# ----------------------------------------------------------------------

def read_jsonl(path: PathLike) -> List[Dict]:
    """Read a JSON Lines file into a list of dicts (blank lines skipped).

    Raises:
        ValueError: when a non-blank line is not a JSON object.
    """
    rows: List[Dict] = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        row = json.loads(line)
        if not isinstance(row, dict):
            raise ValueError(
                f"{path}:{lineno}: expected a JSON object per line, "
                f"got {type(row).__name__}"
            )
        rows.append(row)
    return rows


def dump_jsonl_line(row: Dict) -> str:
    """One canonical JSON Lines record (sorted keys, no padding).

    The canonical form is what the parity suite byte-compares, so both
    the serving CLI and tests must serialize through it.
    """
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def write_jsonl(rows: Iterable[Dict], path: PathLike) -> None:
    """Write dicts to a JSON Lines file, one canonical record per line."""
    Path(path).write_text(
        "".join(dump_jsonl_line(row) + "\n" for row in rows)
    )


# ----------------------------------------------------------------------
# WRSN instances
# ----------------------------------------------------------------------

def wrsn_to_dict(network: WRSN) -> Dict:
    """Serialize a WRSN instance to a JSON-ready dict."""
    return {
        "format": WRSN_FORMAT,
        "field": {
            "width": network.field.width,
            "height": network.field.height,
        },
        "comm_range_m": network.comm_range_m,
        "base_station": list(network.base_station.position.as_tuple()),
        "depot": list(network.depot.position.as_tuple()),
        "sensors": [
            {
                "id": s.id,
                "x": s.position.x,
                "y": s.position.y,
                "capacity_j": s.battery.capacity_j,
                "level_j": s.battery.level_j,
                "data_rate_bps": s.data_rate_bps,
            }
            for s in network.sensors()
        ],
    }


def _field(obj: object, key: str, where: str = "") -> object:
    """``obj[key]``, or a ValueError naming the field ``where + key``."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"network field {where.rstrip('.')} must be an object, "
            f"got {_json_type(obj)}"
        )
    if key not in obj:
        raise ValueError(f"network field {where}{key} is missing")
    return obj[key]


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(obj: object, key: str, where: str = "") -> float:
    value = _field(obj, key, where)
    if not _is_number(value):
        raise ValueError(
            f"network field {where}{key} must be a number, "
            f"got {_json_type(value)}"
        )
    return float(value)


def _point(obj: object, key: str) -> Point:
    value = _field(obj, key)
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(_is_number(v) for v in value)
    ):
        raise ValueError(
            f"network field {key} must be an [x, y] pair of numbers, "
            f"got {json.dumps(value)[:40]}"
        )
    return Point(float(value[0]), float(value[1]))


def _json_type(value: object) -> str:
    return "null" if value is None else type(value).__name__


def wrsn_from_dict(data: Dict) -> WRSN:
    """Rebuild a WRSN instance from :func:`wrsn_to_dict` output.

    Raises:
        ValueError: on a missing or unknown format tag, or a field that
            is missing or of the wrong type (the message names it).
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"a {WRSN_FORMAT} document must be an object, "
            f"got {_json_type(data)}"
        )
    if data.get("format") != WRSN_FORMAT:
        raise ValueError(
            f"not a {WRSN_FORMAT} document: format={data.get('format')!r}"
        )
    raw_sensors = _field(data, "sensors")
    if not isinstance(raw_sensors, list):
        raise ValueError(
            f"network field sensors must be a list, "
            f"got {_json_type(raw_sensors)}"
        )
    sensors = []
    for index, raw in enumerate(raw_sensors):
        where = f"sensors[{index}]."
        sensor_id = _field(raw, "id", where)
        if isinstance(sensor_id, bool) or not isinstance(sensor_id, int):
            raise ValueError(
                f"network field {where}id must be an integer, "
                f"got {_json_type(sensor_id)}"
            )
        sensors.append(
            Sensor(
                id=sensor_id,
                position=Point(
                    _number(raw, "x", where), _number(raw, "y", where)
                ),
                battery=Battery(
                    capacity_j=_number(raw, "capacity_j", where),
                    level_j=_number(raw, "level_j", where),
                ),
                data_rate_bps=_number(raw, "data_rate_bps", where),
            )
        )
    field = _field(data, "field")
    return WRSN(
        sensors=sensors,
        base_station=BaseStation(position=_point(data, "base_station")),
        depot=Depot(position=_point(data, "depot")),
        comm_range_m=_number(data, "comm_range_m"),
        field=Field(
            width=_number(field, "width", "field."),
            height=_number(field, "height", "field."),
        ),
    )


def save_wrsn(network: WRSN, path: PathLike) -> None:
    """Write a WRSN instance to a JSON file."""
    Path(path).write_text(json.dumps(wrsn_to_dict(network), indent=2))


def load_wrsn(path: PathLike) -> WRSN:
    """Read a WRSN instance from a JSON file."""
    return wrsn_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------

def schedule_to_dict(
    schedule: ChargingSchedule,
    algorithm: str = "",
) -> Dict:
    """Serialize any schedule to a JSON-ready report dict.

    The document captures the *executable* content — per-vehicle stop
    sequences with timing and the sensors each stop charges — not the
    internal solver state; it is sufficient to drive an MCV fleet or to
    recompute every metric in :mod:`repro.sim.metrics`.
    """
    name = algorithm or getattr(schedule, "planner", "")
    # The kind is the registry's claim about the planner; a schedule
    # from an unregistered one is taken as multi-node.
    multi_node = name not in planner_names() or get_planner(name).multi_node
    # Unwrap the pipeline's PlannedSchedule proxy, if present.
    schedule = getattr(schedule, "raw", schedule)
    vehicles: List[Dict] = []
    for k, tour in enumerate(schedule.tours):
        stops = []
        for node in tour:
            start, finish = schedule.stop_interval(node)
            stops.append(
                {
                    "location": node,
                    "arrival_s": schedule.arrival[node],
                    "start_s": start,
                    "wait_s": schedule.wait[node],
                    "finish_s": finish,
                    "charges": sorted(schedule.charges.get(node, ())),
                }
            )
        vehicles.append(
            {"vehicle": k, "delay_s": schedule.tour_delay(k), "stops": stops}
        )
    return {
        "format": SCHEDULE_FORMAT,
        "algorithm": algorithm,
        "kind": "multi-node" if multi_node else "one-to-one",
        "depot": list(schedule.depot.as_tuple()),
        "longest_delay_s": schedule.longest_delay(),
        "vehicles": vehicles,
    }


def save_schedule(
    schedule: ChargingSchedule,
    path: PathLike,
    algorithm: str = "",
) -> None:
    """Write a schedule report to a JSON file."""
    Path(path).write_text(
        json.dumps(schedule_to_dict(schedule, algorithm), indent=2)
    )


def load_schedule_report(path: PathLike) -> Dict:
    """Read a schedule report; returns the plain dict (reports are
    consumed, not re-solved).

    Raises:
        ValueError: on a wrong format tag.
    """
    data = json.loads(Path(path).read_text())
    if data.get("format") != SCHEDULE_FORMAT:
        raise ValueError(
            f"not a {SCHEDULE_FORMAT} document: format={data.get('format')!r}"
        )
    return data
