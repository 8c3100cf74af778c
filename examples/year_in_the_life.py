#!/usr/bin/env python3
"""A season in the life of a WRSN: the paper's monitoring simulation.

Simulates a 1000-sensor network under the paper's energy model for a
configurable number of days (default 60; the paper uses 365), once per
algorithm, and prints the two metrics every figure of the evaluation
reports: the average longest tour duration and the average dead
duration per sensor. Watch the one-to-one baselines saturate — their
round delays keep growing — while the multi-node ``Appro`` reaches a
steady state.

Run:
    python examples/year_in_the_life.py [days] [algorithms...]
    python examples/year_in_the_life.py 365 Appro K-minMax
"""

from __future__ import annotations

import sys
import time

from repro.bench.workloads import PaperParams, make_instance
from repro.pipeline import planner_names
from repro.sim.simulator import MonitoringSimulation


def main() -> None:
    days = float(sys.argv[1]) if len(sys.argv) > 1 else 60.0
    names = sys.argv[2:] or planner_names(paper_only=True)

    params = PaperParams(num_sensors=1000, num_chargers=2)
    net = make_instance(params, seed=42)
    print(
        f"n={params.num_sensors}, K={params.num_chargers}, "
        f"horizon={days:g} days, threshold="
        f"{params.request_threshold:.0%}\n"
    )

    for name in names:
        t0 = time.time()
        sim = MonitoringSimulation(
            network=net,
            algorithm=name,
            num_chargers=params.num_chargers,
            charger=params.charger(),
            threshold=params.request_threshold,
            horizon_s=days * 86400.0,
        )
        metrics = sim.run()
        elapsed = time.time() - t0

        delays_h = [d / 3600 for d in metrics.round_longest_delays_s]
        early = delays_h[: 3]
        late = delays_h[-3:]
        print(f"=== {name} ===")
        print(f"  rounds                     : {metrics.num_rounds}")
        print(
            f"  mean longest tour duration : "
            f"{metrics.mean_longest_delay_hours:.2f} h"
        )
        print(
            f"  first rounds vs last rounds: "
            f"{[f'{d:.1f}' for d in early]} -> "
            f"{[f'{d:.1f}' for d in late]} h"
        )
        print(
            f"  avg dead duration / sensor : "
            f"{metrics.avg_dead_time_per_sensor_minutes:.1f} min"
        )
        print(
            f"  sensors ever dead          : "
            f"{metrics.num_sensors_ever_dead}/{metrics.num_sensors}"
        )
        print(f"  simulated in               : {elapsed:.1f} s\n")


if __name__ == "__main__":
    main()
