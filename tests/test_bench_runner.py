"""Unit tests for :mod:`repro.bench.runner` (tiny scales).

The figure series are pinned bit for bit against
``tests/data/figure_golden.json``; regenerate it only on a deliberate
output change::

    PYTHONPATH=src python -m tests.test_bench_runner
"""

import json
from pathlib import Path

import pytest

from repro.bench.runner import (
    FIGURES,
    ExperimentResult,
    SweepPoint,
    run_figure,
    run_sweep,
    simulate_once,
)
from repro.bench.workloads import PaperParams
from tests._golden_env import env_note

TINY = PaperParams(num_sensors=40, num_chargers=1)
SHORT = 5 * 86400.0


class TestSimulateOnce:
    def test_returns_metrics(self):
        metrics = simulate_once(TINY, "K-EDF", seed=1, horizon_s=SHORT)
        assert metrics.horizon_s == SHORT
        assert metrics.num_sensors == 40


class TestRunSweep:
    def test_structure(self):
        points = [
            SweepPoint(label=40, params=TINY),
            SweepPoint(
                label=60, params=TINY.with_overrides(num_sensors=60)
            ),
        ]
        result = run_sweep(
            "tiny", "n", points, algorithms=("K-EDF", "AA"),
            instances=1, horizon_s=SHORT,
        )
        assert result.x_values == [40, 60]
        assert set(result.mean_longest_delay_h) == {"K-EDF", "AA"}
        assert len(result.mean_longest_delay_h["K-EDF"]) == 2
        assert len(result.avg_dead_min["AA"]) == 2

    def test_invalid_instances(self):
        with pytest.raises(ValueError):
            run_sweep("x", "n", [], instances=0)

    def test_progress_callback(self):
        lines = []
        run_sweep(
            "cb", "n", [SweepPoint(label=40, params=TINY)],
            algorithms=("K-EDF",), instances=1, horizon_s=SHORT,
            progress=lines.append,
        )
        assert len(lines) == 1
        assert "K-EDF" in lines[0]


class TestExperimentResult:
    def test_series_lookup(self):
        result = ExperimentResult(name="x", x_label="n")
        result.mean_longest_delay_h["A"] = [1.0]
        result.avg_dead_min["A"] = [2.0]
        assert result.series("longest_delay_h") == {"A": [1.0]}
        assert result.series("dead_min") == {"A": [2.0]}
        with pytest.raises(KeyError):
            result.series("nope")

    def test_algorithms(self):
        result = ExperimentResult(name="x", x_label="n")
        result.mean_longest_delay_h["B"] = []
        assert result.algorithms() == ["B"]


GOLDEN = Path(__file__).parent / "data" / "figure_golden.json"


def _golden_series(workers: int, golden) -> dict:
    """Every golden figure re-run at the golden's scale, as hex floats."""
    figures = {}
    for key, expected in golden["figures"].items():
        result = run_figure(
            key,
            instances=golden["instances"],
            horizon_s=golden["horizon_days"] * 86400.0,
            algorithms=tuple(golden["algorithms"]),
            x_values=tuple(expected["x_values"]),
            workers=workers,
        )
        figures[key] = {
            "x_values": list(result.x_values),
            **{
                metric: {
                    alg: [float(v).hex() for v in values]
                    for alg, values in result.series(name).items()
                }
                for metric, name in (
                    ("mean_longest_delay_h", "longest_delay_h"),
                    ("avg_dead_min", "dead_min"),
                )
            },
        }
    return figures


class TestFigureGolden:
    def test_table_covers_the_three_figures(self):
        assert set(FIGURES) == {"fig3", "fig4", "fig5"}
        golden = json.loads(GOLDEN.read_text())
        assert set(golden["figures"]) == set(FIGURES)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_series_float_identical(self, workers):
        golden = json.loads(GOLDEN.read_text())
        assert _golden_series(workers, golden) == golden["figures"], (
            env_note()
        )

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            run_figure("fig99")


if __name__ == "__main__":
    golden = json.loads(GOLDEN.read_text())
    golden["figures"] = _golden_series(1, golden)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
