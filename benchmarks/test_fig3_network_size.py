"""Reproduce Fig. 3: performance vs network size ``n`` (K = 2).

Paper shape targets (Section VI-B):

* Fig. 3(a) — the longest tour duration of ``Appro`` is far below all
  four baselines and the gap widens with ``n`` (at n = 1200 the paper
  reports ~24 h vs 67–137 h, i.e. ≥ 65 % shorter).
* Fig. 3(b) — the average dead duration per sensor of ``Appro`` stays
  orders of magnitude below the baselines at large ``n``.

Run at paper scale with::

    REPRO_BENCH_INSTANCES=100 REPRO_BENCH_HORIZON_DAYS=365 \
        pytest benchmarks/test_fig3_network_size.py --benchmark-only -s
"""

from __future__ import annotations

from repro.bench.reporting import (
    format_series_table,
    improvement_over_best_baseline,
)
from repro.bench.runner import FIGURES, run_figure
from repro.bench.workloads import bench_horizon_s, bench_instances

from .conftest import cached_experiment

SIZES = FIGURES["fig3"].x_values


def _run():
    return run_figure(
        "fig3",
        instances=bench_instances(),
        horizon_s=bench_horizon_s(),
    )


def test_fig3a_longest_tour_duration(benchmark):
    result = benchmark.pedantic(
        lambda: cached_experiment("fig3", _run), rounds=1, iterations=1
    )
    print()
    print(format_series_table(
        result, "longest_delay_h",
        "Fig. 3(a): average longest tour duration vs n (K=2)", "hours",
    ))
    gains = improvement_over_best_baseline(result, "longest_delay_h")
    print(f"Appro improvement over best baseline per n: "
          f"{[f'{g:.0%}' for g in gains]}")

    series = result.series("longest_delay_h")
    largest = len(SIZES) - 1
    # Appro beats every baseline at the largest (saturated) sizes.
    for alg, values in series.items():
        if alg != "Appro":
            assert series["Appro"][largest] < values[largest], (alg, series)
    # Delays grow with n for every algorithm (monotone trend between
    # the sparsest and densest points).
    for alg, values in series.items():
        assert values[largest] > values[0], (alg, values)


def test_fig3b_dead_duration(benchmark):
    result = benchmark.pedantic(
        lambda: cached_experiment("fig3", _run), rounds=1, iterations=1
    )
    print()
    print(format_series_table(
        result, "dead_min",
        "Fig. 3(b): average dead duration per sensor vs n (K=2)",
        "minutes",
    ))
    series = result.series("dead_min")
    largest = len(SIZES) - 1
    # At the largest n, Appro's dead duration is below every baseline's.
    for alg, values in series.items():
        if alg != "Appro":
            assert series["Appro"][largest] <= values[largest], (alg, series)
    # The weakest baseline (AA) accumulates substantial dead time while
    # Appro stays comparatively small (paper: 40 min vs 7300 min).
    assert series["Appro"][largest] < 0.5 * series["AA"][largest], series
