"""Benchmark harness reproducing the paper's evaluation.

* :mod:`repro.bench.workloads` — the paper-parameter instance
  generators (Section VI-A settings).
* :mod:`repro.bench.runner` — the figure table (Fig. 3, 4 and 5, both
  panels each) and the sweep engine: run a set of algorithms over a
  parameter sweep, averaging over seeded instances.
* :mod:`repro.bench.reporting` — plain-text table rendering of the
  series the paper plots.
* :mod:`repro.bench.record` — machine-readable ``repro-bench/1``
  records (median/min/max per metric), written by ``repro eval
  --bench``.
* :mod:`repro.bench.loadgen` — the nearest-rank ``percentile`` the
  benchmark under ``perfbench/`` imports.
"""

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
    "PaperParams",
    "SweepPoint",
    "bench_record",
    "format_series_table",
    "make_instance",
    "median_of",
    "run_figure",
    "run_sweep",
    "series_to_rows",
    "summarize_samples",
    "write_bench_record",
]
