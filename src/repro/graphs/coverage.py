"""Charging-disk coverage sets ``N_c⁺(v)``.

When an MCV sojourns at sensor ``v`` it charges every sensor within the
charging radius: ``N_c⁺(v) = {v} ∪ {u : d(u, v) ≤ γ}``. These coverage
sets drive Algorithm 1 throughout — the auxiliary graph's edges are
disk intersections, residual charge durations exclude already-covered
sensors, and a feasible solution must cover all of ``V_s``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set

from repro.geometry.disk_index import DiskIndex
from repro.geometry.point import Point


def coverage_sets(
    candidates: Iterable[int],
    positions: Mapping[int, Point],
    radius_m: float,
    targets: Optional[Iterable[int]] = None,
) -> Dict[int, FrozenSet[int]]:
    """``N_c⁺(v)`` for every candidate sojourn location ``v``.

    Args:
        candidates: sojourn-location ids (a subset of the sensors).
        positions: id -> position for all sensors involved.
        radius_m: the charging radius ``γ``.
        targets: the sensor population that can be covered; defaults to
            every key of ``positions``. A candidate always covers
            itself even if absent from ``targets``.

    Returns:
        Mapping from candidate id to the frozen set of covered sensor
        ids (including the candidate itself).
    """
    if radius_m <= 0:
        raise ValueError(f"charging radius must be positive, got {radius_m}")
    target_ids = set(positions) if targets is None else set(targets)
    index = DiskIndex({t: positions[t] for t in sorted(target_ids)})
    # One bulk query for all candidates.
    cand_list = list(candidates)
    rows = index.within_bulk(
        [positions[cand] for cand in cand_list], radius_m
    )
    result: Dict[int, FrozenSet[int]] = {}
    for cand, row in zip(cand_list, rows):
        covered = set(row)
        covered.add(cand)
        result[cand] = frozenset(covered)
    return result


def covered_by(
    chosen: Iterable[int], coverage: Mapping[int, FrozenSet[int]]
) -> Set[int]:
    """Union of the coverage sets of the ``chosen`` sojourn locations."""
    covered: Set[int] = set()
    for node in chosen:
        covered |= coverage[node]
    return covered


def covers_all(
    chosen: Iterable[int],
    coverage: Mapping[int, FrozenSet[int]],
    required: Iterable[int],
) -> bool:
    """Whether the chosen sojourn locations jointly cover ``required``."""
    return set(required) <= covered_by(chosen, coverage)


def uncovered(
    chosen: Iterable[int],
    coverage: Mapping[int, FrozenSet[int]],
    required: Iterable[int],
) -> Set[int]:
    """Sensors in ``required`` not covered by the chosen locations."""
    return set(required) - covered_by(chosen, coverage)
