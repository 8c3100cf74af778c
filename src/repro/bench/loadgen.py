"""Nearest-rank percentile, the one helper left of the daemon load
generator.

``perfbench/workloads.py`` imports :func:`percentile` from this path for
its latency percentiles. ``perfbench/`` stays frozen so that its runs
compare across commits; this module must therefore stay importable here.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (no interpolation, exact sample).

    Raises:
        ValueError: on an empty sample list.
    """
    if not samples:
        raise ValueError("cannot take a percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


__all__ = ["percentile"]
