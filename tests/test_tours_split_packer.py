"""The min-max split's greedy packer (running-max rows, DESIGN §16) and
Metaheuristic's dense-matrix fitness, against the scalar oracle.

Hypothesis draws the inputs where a packer goes wrong first: points
that coincide (zero legs), zero service, ``K >= n``, a single node, and
bounds set exactly to a segment's cost so that a tie lands on the
bound. Results must match ``tests/_legacy_tours.py`` exactly; achieved
bounds are compared as ``float.hex``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import metaheuristic
from repro.core.metaheuristic import (
    MetaheuristicTrace,
    metaheuristic_schedule,
)
from repro.geometry.distcache import DistanceCache
from repro.network.topology import random_wrsn
from repro.tours.arrays import TourLegs, greedy_split_cuts
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
    arrays = [
        np.array(data.draw(st.lists(_LEG, min_size=n, max_size=n)))
        for _ in range(4)
    ]
    legs = TourLegs(*arrays)
    speed = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
    bound = data.draw(st.floats(min_value=0.0, max_value=300.0))
    max_segments = data.draw(st.none() | st.integers(1, n + 1))
    assert greedy_split_cuts(legs, bound, speed, max_segments) == (
        _scalar_cuts(legs, bound, speed, max_segments)
    )


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
