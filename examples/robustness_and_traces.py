#!/usr/bin/env python3
"""Operations tooling: traces, stability diagnosis, execution noise.

Three things a deployment operator needs beyond the scheduler:

1. **Traces** — record every scheduling round of a monitoring run
   (requests, delays, residual stats) and save them as JSON lines in
   a fresh temporary directory (its path is printed).
2. **Stability diagnosis** — detect from the trace whether the fleet
   is keeping up or the queue is diverging (the failure mode that
   drives the paper's Fig. 3(b) dead durations).
3. **Robustness** — Monte-Carlo replay of a schedule under travel and
   charging-duration noise, checking the no-simultaneous-charging
   constraint on the *executed* timeline.

Run:
    python examples/robustness_and_traces.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import random_wrsn
from repro.core.appro import appro_schedule
from repro.sim.robustness import robustness_report
from repro.sim.simulator import MonitoringSimulation
from repro.sim.trace import TraceRecorder


def main() -> None:
    # --- 1 & 2: traces + divergence diagnosis -------------------------
    net = random_wrsn(num_sensors=1100, seed=77)
    horizon = 50 * 86400.0
    # A fresh directory per run: concurrent runs keep their own traces.
    trace_dir = Path(tempfile.mkdtemp(prefix="repro-traces-"))
    print("== Stability diagnosis over 50 days (n=1100, K=2) ==")
    for name in ("Appro", "AA"):
        recorder = TraceRecorder(name)
        metrics = MonitoringSimulation(
            net, recorder, num_chargers=2, horizon_s=horizon
        ).run()
        trace = recorder.trace
        verdict = "DIVERGING" if trace.is_diverging() else "stable"
        delays = trace.delays_s()
        print(
            f"  {name:<8} rounds={len(trace):<4} "
            f"first~{delays[0] / 3600:.1f}h last~{delays[-1] / 3600:.1f}h "
            f"dead={metrics.avg_dead_time_per_sensor_minutes:.0f}min "
            f"-> {verdict}"
        )
        trace.save_jsonl(
            trace_dir / f"trace_{name.lower().replace('-', '_')}.jsonl"
        )
    print(f"  (traces saved to {trace_dir}/trace_*.jsonl)\n")

    # --- 3: execution-noise robustness ---------------------------------
    print("== Execution robustness of one Appro schedule ==")
    small = random_wrsn(num_sensors=300, seed=78)
    rng = np.random.default_rng(79)
    small.set_residuals(
        {
            sid: float(rng.uniform(0.0, 0.2)) * 10_800.0
            for sid in small.all_sensor_ids()
        }
    )
    schedule = appro_schedule(small, small.all_sensor_ids(), 2)
    for noise in (0.05, 0.1, 0.2):
        report = robustness_report(
            schedule, trials=50, travel_noise=noise,
            charge_noise=noise / 2, seed=80,
        )
        print(f"  noise ±{noise:.0%}: {report}")


if __name__ == "__main__":
    main()
