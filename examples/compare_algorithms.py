#!/usr/bin/env python3
"""Compare all five algorithms of the paper on one request batch.

Runs ``Appro`` and the four baselines (``K-EDF``, ``NETWRAP``, ``AA``,
``K-minMax``) on the same depleted 500-sensor instance and prints the
longest charge delay, per-tour breakdown and wall-clock time of each —
the single-round version of the paper's Fig. 3(a) comparison.

Run:
    python examples/compare_algorithms.py [num_sensors] [K]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import random_wrsn
from repro.pipeline import planner_names, run_planner


def main() -> None:
    num_sensors = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    num_chargers = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    net = random_wrsn(num_sensors=num_sensors, seed=13)
    rng = np.random.default_rng(17)
    net.set_residuals(
        {
            sid: float(rng.uniform(0.0, 0.2)) * 10_800.0
            for sid in net.all_sensor_ids()
        }
    )
    requests = net.all_sensor_ids()
    lifetimes = {sid: 1e9 for sid in requests}

    print(
        f"n={num_sensors} sensors, all requesting, K={num_chargers} "
        f"chargers\n"
    )
    print(f"{'algorithm':<10} {'longest delay':>14} {'per-tour (h)':>28} "
          f"{'runtime':>9}")
    print("-" * 66)

    rows = []
    for name in planner_names(paper_only=True):
        t0 = time.time()
        result = run_planner(
            name, net, requests, num_chargers, lifetimes=lifetimes
        )
        elapsed = time.time() - t0
        delays = sorted(
            (result.tour_delays() if hasattr(result, "tour_delays") else []),
            reverse=True,
        )
        rows.append((result.longest_delay(), name, delays, elapsed))

    for delay, name, delays, elapsed in sorted(rows):
        per_tour = ", ".join(f"{d / 3600:.1f}" for d in delays)
        print(
            f"{name:<10} {delay / 3600:>12.2f} h {per_tour:>28} "
            f"{elapsed:>7.2f} s"
        )

    best_baseline = min(d for d, n, *_ in rows if n != "Appro")
    appro = next(d for d, n, *_ in rows if n == "Appro")
    print(
        f"\nAppro is {1 - appro / best_baseline:.0%} shorter than the "
        f"best one-to-one baseline."
    )


if __name__ == "__main__":
    main()
