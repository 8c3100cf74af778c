"""Machine-readable benchmark records (``repro-bench/1``).

The one producer is ``repro eval --bench``, which writes the
head-to-head quality result ``BENCH_eval.json``. A record carries the
benchmark name, its workload parameters, per-metric sample lists with
median/min/max summaries, and any derived scalars. Medians — not
means — are the headline statistic: they are robust to one-sided
outliers.

Schema (``repro-bench/1``)::

    {
      "format": "repro-bench/1",
      "benchmark": "eval-head-to-head",
      "params": {"sizes": [60, 100], "trials": 3, ...},
      "repeats": 252,
      "metrics": {
        "planned_delay_s": {"median": ..., "min": ..., "max": ...,
                            "samples": [...]},
        ...
      },
      "derived": {"wins_vs_appro[AA]": ..., ...}
    }

Keys are emitted sorted, so records diff cleanly between runs.
"""

from __future__ import annotations

import json
from statistics import median
from typing import Dict, Mapping, Optional, Sequence

from repro.io import PathLike

#: Version tag of the record schema.
BENCH_FORMAT = "repro-bench/1"


def summarize_samples(samples: Sequence[float]) -> Dict:
    """Median/min/max summary plus the raw samples.

    Raises:
        ValueError: on an empty sample list — a benchmark that measured
            nothing has no business writing a record.
    """
    values = [float(s) for s in samples]
    if not values:
        raise ValueError("cannot summarize an empty sample list")
    return {
        "median": median(values),
        "min": min(values),
        "max": max(values),
        "samples": values,
    }


def bench_record(
    benchmark: str,
    params: Mapping,
    metrics: Mapping[str, Sequence[float]],
    derived: Optional[Mapping[str, float]] = None,
) -> Dict:
    """Build one ``repro-bench/1`` record.

    Args:
        benchmark: stable benchmark name (``eval-head-to-head``).
        params: the workload knobs the samples were measured under.
        metrics: metric name -> raw samples (seconds, counts, ...).
        derived: scalar summaries (win/tie/loss counts, means);
            stored as given.

    Raises:
        ValueError: on an empty metrics mapping or any empty sample
            list, or when metric sample counts disagree (a partial
            sweep would silently skew cross-metric ratios).
    """
    if not metrics:
        raise ValueError("a bench record needs at least one metric")
    lengths = {len(samples) for samples in metrics.values()}
    if len(lengths) != 1:
        raise ValueError(
            f"metric sample counts disagree: "
            f"{ {k: len(v) for k, v in sorted(metrics.items())} }"
        )
    return {
        "format": BENCH_FORMAT,
        "benchmark": str(benchmark),
        "params": dict(params),
        "repeats": lengths.pop(),
        "metrics": {
            name: summarize_samples(samples)
            for name, samples in metrics.items()
        },
        "derived": dict(derived or {}),
    }


def write_bench_record(record: Mapping, path: PathLike) -> None:
    """Write a record as sorted, indented JSON (trailing newline)."""
    if record.get("format") != BENCH_FORMAT:
        raise ValueError(
            f"not a {BENCH_FORMAT} record: format={record.get('format')!r}"
        )
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def median_of(record: Mapping, metric: str) -> float:
    """The stored median of one metric (convenience for consumers)."""
    return float(record["metrics"][metric]["median"])


__all__ = [
    "BENCH_FORMAT",
    "bench_record",
    "median_of",
    "summarize_samples",
    "write_bench_record",
]
