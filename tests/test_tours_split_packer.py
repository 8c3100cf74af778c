"""The min-max split's greedy packer (running-max rows, DESIGN §16),
its interval-shortcut bisection, and Metaheuristic's dense-matrix
fitness, against the scalar oracle and a plain bisection.

Hypothesis draws the inputs where a packer goes wrong first: points
that coincide (zero legs), zero service, ``K >= n``, a single node, and
bounds set exactly to a segment's cost so that a tie lands on the
bound. Results must match ``tests/_legacy_tours.py`` exactly; achieved
bounds are compared as ``float.hex``.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import metaheuristic
from repro.tours import arrays
from repro.core.metaheuristic import (
    MetaheuristicTrace,
    metaheuristic_schedule,
)
from repro.geometry.distcache import DistanceCache
from repro.network.topology import random_wrsn
from repro.tours.arrays import (
    TourLegs,
    greedy_split_cuts,
    range_cost,
    split_min_max_ranges,
)
from repro.tours.splitting import (
    greedy_split_with_bound,
    segment_cost,
    split_tour_min_max,
)
from tests._legacy_tours import (
    legacy_greedy_split_with_bound,
    legacy_split_tour_min_max,
)

#: A 4 x 3 lattice: with up to 12 nodes and the depot on it, many
#: points coincide and many legs are exactly 0 or tie. Its far column
#: and the short service times make a segment's cost plus its return
#: leg fall as the segment heads back towards the depot.
_CELL = st.tuples(
    st.sampled_from([0.0, 1.5, 7.0, 40.0]),
    st.sampled_from([0.0, 2.0, 5.25]),
)
_SERVICE = st.one_of(
    st.sampled_from([0.0, 0.5, 3.0]),
    st.floats(min_value=0.0, max_value=400.0),
)


@st.composite
def split_instances(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    positions = {i: draw(_CELL) for i in range(n)}
    depot = draw(_CELL)
    service = {i: draw(_SERVICE) for i in range(n)}
    order = draw(st.permutations(list(range(n))))
    speed = draw(st.sampled_from([0.25, 1.0, 3.0]))
    return order, positions, depot, speed, service


def _packer_value(order, last, dist, speed, service):
    """The oracle packer's own ``open_cost + step + closing`` for the
    first segment run through ``order[:last + 1]``."""
    open_cost = 0.0
    prev = None
    for node in order[: last + 1]:
        step = dist(prev, node) / speed + service(node)
        value = open_cost + step + dist(node, None) / speed
        open_cost += step
        prev = node
    return value


def _scalar_cuts(legs, bound, speed, max_segments):
    """The oracle packer's loop, read off ``legs`` instead of labels."""
    cuts = []
    open_cost = 0.0
    for k in range(len(legs)):
        fresh = k == 0
        leg = legs.start_m[k] if fresh else legs.chain_m[k]
        step = leg / speed + legs.service_s[k]
        closing = legs.closing_m[k] / speed
        if not fresh and open_cost + step + closing > bound:
            cuts.append(k)
            fresh = True
            open_cost = 0.0
            step = legs.start_m[k] / speed + legs.service_s[k]
        if fresh and step + closing > bound:
            return None
        open_cost += step
    if max_segments is not None and len(cuts) + 1 > max_segments:
        return None
    return cuts


_LEG = st.one_of(
    st.sampled_from([0.0, 1.0, 40.0]),
    st.floats(min_value=0.0, max_value=60.0),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_greedy_split_cuts_on_arbitrary_legs(data):
    """Legs that break the triangle inequality (the closing leg drops
    by more than the chain leg adds), so a segment's cost plus its
    return leg is not monotone along the order."""
    n = data.draw(st.integers(min_value=1, max_value=10))
    legs = _draw_legs(data, n)
    speed = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
    bound = data.draw(st.floats(min_value=0.0, max_value=300.0))
    max_segments = data.draw(st.none() | st.integers(1, n + 1))
    assert greedy_split_cuts(legs, bound, speed, max_segments) == (
        _scalar_cuts(legs, bound, speed, max_segments)
    )


def _draw_legs(data, n):
    return TourLegs(
        *(
            np.array(data.draw(st.lists(_LEG, min_size=n, max_size=n)))
            for _ in range(4)
        )
    )


def _slack(bound):
    return bound * (1.0 + 1e-12) + 1e-9


def _plain_search(legs, speed, probe):
    """The oracle's binary search, one ``probe(slackened bound)`` call
    per ``mid`` and no shortcut; returns ``(ranges, bound, probed)``
    with the probed bounds in order, or ``None`` when the whole order
    does not fit in one segment (legs that break the triangle
    inequality can do that)."""
    probed = []

    def feasible(bound):
        probed.append(_slack(bound))
        return probe(probed[-1])

    n = len(legs)
    single = (legs.start_m + legs.closing_m) / speed + legs.service_s
    low = float(np.max(single))
    high = range_cost(legs, 0, n, speed)
    best = feasible(high)
    if best is None:
        return None
    low_cuts = feasible(low)
    if low_cuts is not None:
        best = low_cuts
    else:
        for _ in range(100):
            if high - low <= 1e-9 * max(high, 1.0):
                break
            mid = (low + high) / 2.0
            cuts = feasible(mid)
            if cuts is None:
                low = mid
            else:
                high = mid
                best = cuts
    edges = [0, *best, n]
    ranges = [(a, b) for a, b in zip(edges, edges[1:]) if a < b]
    bound = max(range_cost(legs, a, b, speed) for a, b in ranges)
    return ranges, bound, probed


def _plain_bisection(legs, num_tours, speed):
    """:func:`_plain_search` with one :func:`greedy_split_cuts` walk per
    probe: the min-max split before its interval shortcuts."""
    return _plain_search(
        legs,
        speed,
        lambda slack: greedy_split_cuts(legs, slack, speed, num_tours),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_probe_interval_holds_its_answer(data):
    """A probe's ``[lo, hi)`` is exact: the answer is the same at ``lo``
    and just below ``hi``, and a feasible walk reaches further at
    ``hi`` itself."""
    n = data.draw(st.integers(min_value=1, max_value=10))
    legs = _draw_legs(data, n)
    speed = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
    max_segments = data.draw(st.none() | st.integers(1, n + 1))
    probe = arrays._greedy_packer(legs, speed)
    bound = data.draw(st.floats(min_value=0.0, max_value=300.0))
    cuts, lo, hi = probe(bound, max_segments)
    assert lo <= bound < hi
    if lo > -math.inf:
        assert probe(lo, max_segments)[0] == cuts
    if hi < math.inf:
        assert probe(math.nextafter(hi, -math.inf), max_segments)[0] == cuts
        if cuts is not None and max_segments is None:
            assert probe(hi)[0] != cuts


def _step_probe(steps):
    """A probe whose answer is the cuts of the last ``(threshold, cuts)``
    step at or below the bound (``None`` below the first), reporting the
    exact interval between thresholds."""
    thresholds = [t for t, _ in steps]

    def probe(bound):
        i = bisect_right(thresholds, bound)
        lo = thresholds[i - 1] if i else -math.inf
        hi = thresholds[i] if i < len(steps) else math.inf
        return (steps[i - 1][1] if i else None), lo, hi

    return probe


@pytest.mark.parametrize("side", ["infeasible", "feasible"])
def test_bisection_intervals_are_half_open(side):
    """A ``mid`` landing exactly on the end of an earlier probe's
    interval, where the answer changes for one ulp: the search must
    walk at the infeasible interval's ``hi`` and must not take the
    feasible answer just below the feasible interval's ``lo``."""
    legs = TourLegs(
        np.array([10.0, 20.0, 15.0, 30.0]),
        np.array([10.0, 12.0, 9.0, 18.0]),
        np.array([10.0, 20.0, 15.0, 30.0]),
        np.array([5.0, 40.0, 25.0, 60.0]),
    )
    threshold = 150.0
    base = _step_probe([(threshold, [2])])
    probed = _plain_search(legs, 1.0, lambda b: base(b)[0])[2][2:]
    if side == "infeasible":
        # The first mid below the threshold, where the low probe's
        # interval ends, alone reads [1, 2].
        step = next(b for b in probed if b < threshold)
        steps = [
            (step, [1, 2]),
            (math.nextafter(step, math.inf), None),
            (threshold, [2]),
        ]
    else:
        # The last feasible mid reads [1, 2]; the probes above it read
        # [2] on an interval that starts one ulp above it.
        step = [b for b in probed if b >= threshold][-1]
        steps = [(threshold, [1, 2]), (math.nextafter(step, math.inf), [2])]
    probe = _step_probe(steps)
    want = _plain_search(legs, 1.0, lambda b: probe(b)[0])
    assert step in want[2]
    assert want[0] == [(0, 1), (1, 2), (2, 4)]
    ranges, bound = arrays._bisect_split(legs, 1.0, probe)
    assert ranges == want[0]
    assert bound.hex() == want[1].hex()


def test_split_rejects_an_order_that_does_not_fit_one_segment():
    """Non-metric legs where the whole order costs 0 s but node 0's
    round trip alone costs 2 s: the precondition is a ``ValueError``,
    not an ``assert`` that ``python -O`` strips."""
    zero = np.zeros(2)
    legs = TourLegs(zero, zero, np.array([1.0, 0.0]), zero)
    with pytest.raises(ValueError, match="fit one segment"):
        split_min_max_ranges(legs, 1, 0.5)


def test_interval_shortcuts_walk_the_packer_less(monkeypatch):
    """Over seeded random orders, the interval-shortcut search walks
    the packer strictly fewer times than the plain bisection."""
    walks = 0
    make_packer = arrays._greedy_packer

    def counting(legs, speed):
        probe = make_packer(legs, speed)

        def counted(*args):
            nonlocal walks
            walks += 1
            return probe(*args)

        return counted

    rng = np.random.default_rng(11)
    instances = [
        (TourLegs(*rng.uniform(0.0, 60.0, size=(4, 30))), k)
        for k in (2, 3, 5)
        for _ in range(10)
    ]
    reference = sum(
        len(_plain_bisection(legs, k, 1.0)[2]) for legs, k in instances
    )
    monkeypatch.setattr(arrays, "_greedy_packer", counting)
    for legs, k in instances:
        split_min_max_ranges(legs, k, 1.0)
    assert 0 < walks < reference


def test_metaheuristic_splits_each_distinct_genome_once(monkeypatch):
    """Re-evaluated genomes (elites, repeated offspring) reuse the
    run's memoized split; the budget still counts every evaluation."""
    genomes = []
    make_splitter = metaheuristic._dense_splitter

    def recording(seed_schedule, stops, num_tours):
        split = make_splitter(seed_schedule, stops, num_tours)

        def recorded(perm):
            genomes.append(tuple(perm))
            return split(perm)

        return recorded

    calls = 0
    real_split = metaheuristic.split_min_max_ranges

    def counting(*args):
        nonlocal calls
        calls += 1
        return real_split(*args)

    monkeypatch.setattr(metaheuristic, "_dense_splitter", recording)
    monkeypatch.setattr(metaheuristic, "split_min_max_ranges", counting)
    net = random_wrsn(num_sensors=40, seed=5)
    requests = sorted(net.all_sensor_ids())[:24]
    trace = MetaheuristicTrace()
    metaheuristic_schedule(net, requests, 2, seed=1, budget=96, trace=trace)
    assert trace.evaluations == 96
    assert len(genomes) > len(set(genomes))  # repeats did occur
    assert calls == len(set(genomes))


@settings(max_examples=300, deadline=None)
@given(instance=split_instances(), data=st.data())
def test_greedy_split_with_bound_matches_oracle(instance, data):
    order, positions, depot, speed, service_map = instance
    dist = DistanceCache(positions, depot)
    service = service_map.__getitem__
    n = len(order)
    kind = data.draw(st.sampled_from(["tie", "segment", "free"]))
    if kind == "tie":
        last = data.draw(st.integers(min_value=0, max_value=n - 1))
        bound = _packer_value(order, last, dist, speed, service)
    elif kind == "segment":
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        stop = data.draw(st.integers(min_value=start + 1, max_value=n))
        bound = segment_cost(
            order[start:stop], positions, depot, speed, service, dist
        )
    else:
        bound = data.draw(st.floats(min_value=0.0, max_value=2000.0))
    fast = greedy_split_with_bound(
        order, bound, positions, depot, speed, service, dist=dist
    )
    legacy = legacy_greedy_split_with_bound(
        order, bound, positions, depot, speed, service, dist=dist
    )
    assert fast == legacy


@settings(max_examples=300, deadline=None)
@given(instance=split_instances(), k=st.integers(min_value=1, max_value=14))
def test_split_tour_min_max_matches_oracle(instance, k):
    order, positions, depot, speed, service_map = instance
    dist = DistanceCache(positions, depot)
    service = service_map.__getitem__
    segments, bound = split_tour_min_max(
        order, k, positions, depot, speed, service, dist=dist
    )
    legacy_segments, legacy_bound = legacy_split_tour_min_max(
        order, k, positions, depot, speed, service, dist=dist
    )
    assert segments == legacy_segments
    assert bound.hex() == legacy_bound.hex()


@pytest.mark.parametrize("num_chargers", [2, 3])
def test_metaheuristic_dense_split_is_the_label_split(
    monkeypatch, num_chargers
):
    """Every split one seeded run makes, to score a genome or to
    materialise it, returns bit for bit the bound of the label-based
    splitter and of the scalar oracle on the seed schedule's cache, and
    the label splitter's segments."""
    seen = []
    make_splitter = metaheuristic._dense_splitter

    def recording(seed_schedule, stops, num_tours):
        split = make_splitter(seed_schedule, stops, num_tours)

        def recorded(perm):
            ranges, score = split(perm)
            seen.append((seed_schedule, list(perm), num_tours, ranges, score))
            return ranges, score

        return recorded

    monkeypatch.setattr(metaheuristic, "_dense_splitter", recording)
    net = random_wrsn(num_sensors=40, seed=5)
    requests = sorted(net.all_sensor_ids())[:24]
    trace = MetaheuristicTrace()
    metaheuristic_schedule(
        net, requests, num_chargers, seed=1, budget=64, trace=trace
    )
    assert trace.evaluations == 64
    assert len(seen) > trace.evaluations  # fitness, then materialise
    for schedule, perm, num_tours, ranges, score in seen:
        args = (
            perm,
            num_tours,
            schedule.positions,
            schedule.depot,
            schedule.speed(),
            schedule.duration.__getitem__,
            schedule.distance,
        )
        segments, bound = split_tour_min_max(*args)
        assert score.hex() == bound.hex()
        assert score.hex() == legacy_split_tour_min_max(*args)[1].hex()
        assert [perm[s:e] for s, e in ranges] == segments[: len(ranges)]
        assert not any(segments[len(ranges):])
