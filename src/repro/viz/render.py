"""High-level SVG scene builders for WRSN schedules.

* :func:`render_network` — deployment view: sensors coloured by battery
  state, base station / depot markers, optional communication edges.
* :func:`render_schedule` — schedule view: the K tours as coloured
  polylines from the depot, sojourn stops with their charging disks,
  covered sensors dimmed.
"""

from __future__ import annotations

from typing import Optional

from repro.core.schedule import ChargingSchedule
from repro.network.topology import WRSN
from repro.viz.svg import SvgCanvas

#: Tour palette (colour-blind-safe-ish, cycled for K > 8).
TOUR_COLORS = (
    "#0072b2", "#d55e00", "#009e73", "#cc79a7",
    "#e69f00", "#56b4e9", "#f0e442", "#999999",
)


def _battery_color(fraction: float) -> str:
    """Green when full, amber near the threshold, red when dead."""
    if fraction <= 0.0:
        return "#c00000"
    if fraction < 0.2:
        return "#e69f00"
    return "#2e8b57"


def render_network(
    network: WRSN,
    show_comm_edges: bool = False,
    pixels_per_meter: float = 8.0,
) -> SvgCanvas:
    """Draw the deployment on a fresh canvas (call ``.render()`` or
    ``.save(path)`` on the result)."""
    canvas = SvgCanvas(
        network.field.width, network.field.height,
        pixels_per_meter=pixels_per_meter,
    )
    canvas.rect(
        0, 0, network.field.width, network.field.height, stroke="#444444"
    )
    if show_comm_edges:
        graph = network.comm_graph()
        for u, v in graph.edges:
            canvas.line(
                network.position_of(u).as_tuple(),
                network.position_of(v).as_tuple(),
                stroke="#dddddd",
                stroke_width=0.5,
            )
    for sensor in network.sensors():
        canvas.dot(
            sensor.position.x,
            sensor.position.y,
            radius_px=2.0,
            fill=_battery_color(sensor.battery.fraction),
        )
    bs = network.base_station.position
    canvas.dot(bs.x, bs.y, radius_px=6.0, fill="#000000")
    canvas.text(bs.x + 1.0, bs.y + 1.0, "BS/depot", size_px=10)
    return canvas


def render_schedule(
    network: WRSN,
    schedule: ChargingSchedule,
    charge_radius_m: Optional[float] = None,
    pixels_per_meter: float = 8.0,
) -> SvgCanvas:
    """Draw the K tours of a schedule over the deployment."""
    canvas = render_network(network, pixels_per_meter=pixels_per_meter)
    depot = network.depot.position.as_tuple()

    radius = (
        charge_radius_m
        if charge_radius_m is not None
        else schedule.charger.charge_radius_m
    )
    for k, tour in enumerate(schedule.tours):
        color = TOUR_COLORS[k % len(TOUR_COLORS)]
        points = [depot]
        points.extend(network.position_of(node).as_tuple() for node in tour)
        points.append(depot)
        canvas.polyline(points, stroke=color, stroke_width=1.5)
        for node in tour:
            pos = network.position_of(node)
            canvas.circle(
                pos.x, pos.y, radius, stroke=color,
                stroke_width=0.8, opacity=0.6,
            )
        if tour:
            first = network.position_of(tour[0])
            canvas.text(
                first.x + 0.5, first.y + 0.5, f"MCV {k}",
                size_px=10, fill=color,
            )
    return canvas
