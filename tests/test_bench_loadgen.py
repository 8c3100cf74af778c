"""The nearest-rank ``percentile`` (src/repro/bench/loadgen.py)."""

import pytest

from repro.bench.loadgen import percentile


class TestPercentile:
    def test_nearest_rank_returns_a_sample(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        assert percentile(samples, 50) == 2.0
        assert percentile(samples, 51) == 3.0
        assert percentile(samples, 90) == 4.0
        assert percentile(samples, 100) == 4.0
        assert percentile(samples, 1) == 1.0

    def test_single_sample(self):
        assert percentile([7.5], 50) == 7.5

    def test_invalid(self):
        with pytest.raises(ValueError, match="no samples"):
            percentile([], 50)
        for p in (0, -1, 101):
            with pytest.raises(ValueError, match="percentile"):
                percentile([1.0], p)
