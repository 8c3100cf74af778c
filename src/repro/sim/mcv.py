"""Replaying schedules as vehicle trajectories.

For diagnostics, animation and examples: turn a
:class:`~repro.core.schedule.ChargingSchedule` into per-vehicle
time-stamped waypoint lists, so one can ask "where is MCV 2 at
t = 1 h?" or export traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.schedule import ChargingSchedule
from repro.geometry.point import Point


@dataclass(frozen=True)
class Waypoint:
    """One trajectory sample: the vehicle is at ``position`` during
    ``[arrive_s, depart_s]`` (equal for pass-through points)."""

    position: Point
    arrive_s: float
    depart_s: float
    label: str


@dataclass
class MCVTrajectory:
    """A single vehicle's full trajectory for one scheduling round."""

    vehicle: int
    waypoints: List[Waypoint]

    def position_at(self, time_s: float) -> Point:
        """Linear interpolation of the vehicle position at ``time_s``."""
        points = self.waypoints
        if not points:
            raise ValueError("trajectory has no waypoints")
        if time_s <= points[0].arrive_s:
            return points[0].position
        for prev, nxt in zip(points, points[1:]):
            if time_s <= prev.depart_s:
                return prev.position
            if time_s <= nxt.arrive_s:
                span = nxt.arrive_s - prev.depart_s
                if span <= 0:
                    return nxt.position
                frac = (time_s - prev.depart_s) / span
                return Point(
                    prev.position.x
                    + frac * (nxt.position.x - prev.position.x),
                    prev.position.y
                    + frac * (nxt.position.y - prev.position.y),
                )
        return points[-1].position

    @property
    def ends_at_s(self) -> float:
        return self.waypoints[-1].depart_s if self.waypoints else 0.0


def replay_schedule(schedule: ChargingSchedule) -> List[MCVTrajectory]:
    """Build one :class:`MCVTrajectory` per vehicle from a schedule."""
    out: List[MCVTrajectory] = []
    for k, tour in enumerate(schedule.tours):
        waypoints = [Waypoint(schedule.depot, 0.0, 0.0, "depot")]
        for node in tour:
            waypoints.append(
                Waypoint(
                    schedule.positions[node],
                    schedule.arrival[node],
                    schedule.finish[node],
                    f"stop:{node}",
                )
            )
        if tour:
            end = schedule.tour_delay(k)
            waypoints.append(Waypoint(schedule.depot, end, end, "depot"))
        out.append(MCVTrajectory(vehicle=k, waypoints=waypoints))
    return out
