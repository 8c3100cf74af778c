#!/usr/bin/env python3
"""Render a scheduling instance and its solutions as SVG figures.

Produces three files in the working directory (or a given output dir):

* ``wrsn_deployment.svg`` — the depleted network, sensors coloured by
  battery state, base station marked;
* ``wrsn_appro.svg`` — Appro's K tours with sojourn charging disks;
* ``wrsn_kminmax.svg`` — the strongest one-to-one baseline's K tours
  (visibly longer: one polyline vertex per *sensor* instead of per
  disk).

Run:
    python examples/visualize_tours.py [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro import random_wrsn
from repro.baselines.kminmax_baseline import kminmax_baseline_schedule
from repro.core.appro import appro_schedule
from repro.viz.render import render_network, render_schedule


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    net = random_wrsn(num_sensors=250, seed=9)
    rng = np.random.default_rng(10)
    net.set_residuals(
        {
            sid: float(rng.uniform(0.0, 0.2)) * 10_800.0
            for sid in net.all_sensor_ids()
        }
    )
    requests = net.all_sensor_ids()

    deployment = out_dir / "wrsn_deployment.svg"
    render_network(net).save(deployment)
    print(f"wrote {deployment}")

    appro = appro_schedule(net, requests, num_chargers=2)
    appro_svg = out_dir / "wrsn_appro.svg"
    render_schedule(net, appro).save(appro_svg)
    print(
        f"wrote {appro_svg} "
        f"({len(appro.scheduled_stops())} stops, "
        f"{appro.longest_delay() / 3600:.1f} h)"
    )

    baseline = kminmax_baseline_schedule(net, requests, num_chargers=2)
    baseline_svg = out_dir / "wrsn_kminmax.svg"
    render_schedule(net, baseline).save(baseline_svg)
    print(
        f"wrote {baseline_svg} "
        f"({len(baseline.scheduled_stops())} stops, "
        f"{baseline.longest_delay() / 3600:.1f} h)"
    )


if __name__ == "__main__":
    main()
