"""Reproduce Fig. 5: performance vs number of chargers ``K``
(n = 1000).

Paper shape targets: both metrics drop sharply from ``K = 1`` to
``K = 2`` and then flatten (diminishing returns); ``Appro`` remains the
best algorithm at every ``K``.
"""

from __future__ import annotations

from repro.bench.reporting import format_series_table
from repro.bench.runner import FIGURES, run_figure
from repro.bench.workloads import bench_horizon_s, bench_instances

from .conftest import cached_experiment

NUM_CHARGERS = FIGURES["fig5"].x_values


def _run():
    return run_figure(
        "fig5",
        instances=bench_instances(),
        horizon_s=bench_horizon_s(),
    )


def test_fig5a_longest_tour_duration(benchmark):
    result = benchmark.pedantic(
        lambda: cached_experiment("fig5", _run), rounds=1, iterations=1
    )
    print()
    print(format_series_table(
        result, "longest_delay_h",
        "Fig. 5(a): average longest tour duration vs K (n=1000)",
        "hours",
    ))
    series = result.series("longest_delay_h")
    for alg, values in series.items():
        # Sharp drop K=1 -> K=2.
        assert values[1] < values[0], (alg, values)
        # Diminishing returns: the K=1->2 drop dominates the K=2->5 one.
        drop_12 = values[0] - values[1]
        drop_25 = values[1] - values[4]
        assert drop_12 > drop_25 * 0.5, (alg, values)
    # Appro best at the paper's headline point K=2.
    for alg, values in series.items():
        if alg != "Appro":
            assert series["Appro"][1] <= values[1] * 1.02, (alg, series)


def test_fig5b_dead_duration(benchmark):
    result = benchmark.pedantic(
        lambda: cached_experiment("fig5", _run), rounds=1, iterations=1
    )
    print()
    print(format_series_table(
        result, "dead_min",
        "Fig. 5(b): average dead duration per sensor vs K (n=1000)",
        "minutes",
    ))
    series = result.series("dead_min")
    for alg, values in series.items():
        # Dead time collapses as chargers are added.
        assert values[4] <= values[0], (alg, values)
    # At K=2 the baselines sit at the stability edge (near-zero dead
    # durations possible): Appro within noise of the best baseline and
    # no worse than the worst.
    best_baseline = min(
        values[1] for alg, values in series.items() if alg != "Appro"
    )
    worst_baseline = max(
        values[1] for alg, values in series.items() if alg != "Appro"
    )
    assert series["Appro"][1] <= best_baseline + 15.0, series
    assert series["Appro"][1] <= worst_baseline, series
    # At K=1 (deep overload) Appro's multi-node parallelism must keep
    # dead time below every baseline's.
    for alg, values in series.items():
        if alg != "Appro":
            assert series["Appro"][0] <= values[0], (alg, series)
