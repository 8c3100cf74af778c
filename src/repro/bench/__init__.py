"""Benchmark harness reproducing the paper's evaluation.

* :mod:`repro.bench.workloads` — the paper-parameter instance
  generators (Section VI-A settings).
* :mod:`repro.bench.runner` — the figure table (Fig. 3, 4 and 5, both
  panels each) and the sweep engine: run a set of algorithms over a
  parameter sweep, averaging over seeded instances.
* :mod:`repro.bench.reporting` — plain-text table rendering of the
  series the paper plots.
* :mod:`repro.bench.record` — machine-readable ``repro-bench/1``
  micro-benchmark records (median/min/max per metric).
* :mod:`repro.bench.loadgen` — open-loop load generator for the
  planning daemon (latency percentiles and rejection ratio under
  overload).
* :mod:`repro.bench.online` — the online-replanning campaign: delta
  invalidation (``PlanningContext.invalidate``) vs a cold context
  rebuild, parity-checked every round.
"""

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
from repro.bench.runner import (
    FIGURES,
    ExperimentResult,
    SweepPoint,
    run_figure,
    run_sweep,
)
from repro.bench.workloads import PaperParams, make_instance

__all__ = [
    "BENCH_FORMAT",
    "ExperimentResult",
    "FIGURES",
    "LoadResult",
    "PaperParams",
    "SweepPoint",
    "bench_record",
    "format_online",
    "format_series_table",
    "loadgen_record",
    "make_corpus",
    "make_instance",
    "measure_capacity_jps",
    "median_of",
    "percentile",
    "run_figure",
    "run_load",
    "run_online_bench",
    "state_speedup",
    "run_sweep",
    "series_to_rows",
    "summarize_samples",
    "write_bench_record",
]
