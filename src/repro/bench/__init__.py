"""Benchmark harness reproducing the paper's evaluation.

* :mod:`repro.bench.workloads` — the paper-parameter instance
  generators (Section VI-A settings).
* :mod:`repro.bench.runner` — sweep execution: run a set of algorithms
  over a parameter sweep, averaging over seeded instances.
* :mod:`repro.bench.experiments` — one driver per figure panel
  (Fig. 3(a)/(b), Fig. 4(a)/(b), Fig. 5(a)/(b)).
* :mod:`repro.bench.reporting` — plain-text table rendering of the
  series the paper plots.
* :mod:`repro.bench.fault_campaign` — the ``repro faults`` campaign:
  every algorithm executed under identical seeded fault draws.
* :mod:`repro.bench.record` — machine-readable ``repro-bench/1``
  micro-benchmark records (median/min/max per metric).
* :mod:`repro.bench.loadgen` — open-loop load generator for the
  planning daemon (latency percentiles and rejection ratio under
  overload).
* :mod:`repro.bench.online` — the online-replanning campaign: delta
  invalidation (``PlanningContext.invalidate``) vs a cold context
  rebuild, parity-checked every round.
"""

from repro.bench.experiments import (
    fig3_network_size,
    fig4_data_rate,
    fig5_num_chargers,
)
from repro.bench.fault_campaign import (
    FaultCampaignResult,
    FaultCampaignRow,
    run_fault_campaign,
)
from repro.bench.loadgen import (
    LoadResult,
    loadgen_record,
    make_corpus,
    measure_capacity_jps,
    percentile,
    run_load,
)
from repro.bench.online import (
    format_online,
    run_online_bench,
    state_speedup,
)
from repro.bench.record import (
    BENCH_FORMAT,
    bench_record,
    median_of,
    summarize_samples,
    write_bench_record,
)
from repro.bench.reporting import format_series_table, series_to_rows
from repro.bench.runner import ExperimentResult, SweepPoint, run_sweep
from repro.bench.workloads import PaperParams, make_instance

__all__ = [
    "BENCH_FORMAT",
    "ExperimentResult",
    "FaultCampaignResult",
    "FaultCampaignRow",
    "LoadResult",
    "PaperParams",
    "SweepPoint",
    "bench_record",
    "fig3_network_size",
    "fig4_data_rate",
    "fig5_num_chargers",
    "format_online",
    "format_series_table",
    "loadgen_record",
    "make_corpus",
    "make_instance",
    "measure_capacity_jps",
    "median_of",
    "percentile",
    "run_fault_campaign",
    "run_load",
    "run_online_bench",
    "state_speedup",
    "run_sweep",
    "series_to_rows",
    "summarize_samples",
    "write_bench_record",
]
