"""The heap-driven extension loop against the retired full rescan.

``extend_schedule`` refreshes ``f_N`` only for pending H-neighbours of
the stops whose finish time an insertion moved; the oracle in
``tests/_legacy_insertion.py`` recomputes every pending candidate on
every pick. They must process the same candidates in the same order
with the same outcomes, and leave byte-identical schedules.
"""

import random
from unittest import mock

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import appro, insertion
from repro.core.appro import appro_schedule_with_artifacts
from repro.core.insertion import extend_schedule
from repro.core.schedule import ChargingSchedule
from repro.energy.charging import ChargerSpec
from repro.geometry.deployment import Field
from repro.geometry.point import Point
from repro.io import dump_jsonl_line, schedule_to_dict
from repro.network.topology import random_wrsn
from tests._legacy_insertion import rescan_extend_schedule

CHARGERS = st.sampled_from([1, 2, 3, 5])


def _bytes(schedule):
    return dump_jsonl_line(schedule_to_dict(schedule))


def _assert_timing_is_current(schedule):
    """Finish times kept by partial recomputes equal a full one."""
    finish, arrival = dict(schedule.finish), dict(schedule.arrival)
    for k in range(schedule.num_tours):
        schedule.recompute_finish_times(k)
    assert schedule.finish == finish
    assert schedule.arrival == arrival


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=5, max_value=160),
    side_m=st.sampled_from([15.0, 30.0, 100.0]),
    num_chargers=CHARGERS,
)
def test_appro_matches_rescan_on_random_fields(seed, n, side_m, num_chargers):
    net = random_wrsn(n, field=Field(side_m, side_m), seed=seed)
    requests = net.all_sensor_ids()
    fast, fast_art = appro_schedule_with_artifacts(net, requests, num_chargers)
    with mock.patch.object(appro, "extend_schedule", rescan_extend_schedule):
        slow, slow_art = appro_schedule_with_artifacts(
            net, requests, num_chargers
        )
    assert list(fast_art.insertion_outcomes.items()) == list(
        slow_art.insertion_outcomes.items()
    )
    assert _bytes(fast) == _bytes(slow)
    _assert_timing_is_current(fast)


@st.composite
def _synthetic(draw):
    """A random schedule core plus pending candidates and a random H.

    Positions sit on a coarse lattice and charge times take two
    values, so equal ``f_N`` ties are common; sparse H draws leave
    candidates disconnected from the core (the ``"appended"`` path).
    """
    num = draw(st.integers(min_value=2, max_value=24))
    num_chargers = draw(CHARGERS)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    edge_p = draw(st.sampled_from([0.05, 0.2, 0.5]))
    rng = np.random.default_rng(seed)
    nodes = list(range(num))
    positions = {
        v: Point(*(rng.integers(0, 6, size=2) * 2.0).tolist()) for v in nodes
    }
    # Candidates charge only shared sensors (their own ids carry no
    # charge time), so a disk can be fully covered: the skip path.
    sensors = list(range(100, 100 + num + 2))
    coverage = {
        v: frozenset(
            [v]
            + rng.choice(
                sensors, size=int(rng.integers(1, 4)), replace=False
            ).tolist()
        )
        for v in nodes
    }
    charge_times = {u: float(rng.choice([10.0, 20.0])) for u in sensors}
    aux = nx.Graph()
    aux.add_nodes_from(nodes)
    for u in nodes:
        for v in nodes[u + 1:]:
            if rng.random() < edge_p:
                aux.add_edge(u, v)
    core_size = int(rng.integers(1, num))
    order = rng.permutation(num).tolist()
    core, remaining = order[:core_size], order[core_size:]
    schedule = ChargingSchedule(
        depot=Point(0.0, 0.0),
        positions=positions,
        coverage=coverage,
        charge_times=charge_times,
        charger=ChargerSpec(),
        num_tours=num_chargers,
    )
    for i, v in enumerate(core):
        schedule.append_stop(i % num_chargers, v)
    return schedule, remaining, aux


@settings(max_examples=200, deadline=None)
@given(case=_synthetic())
def test_extension_matches_rescan_on_synthetic_graphs(case):
    schedule, remaining, aux = case
    slow_sched = schedule.copy()
    fast = extend_schedule(schedule, remaining, aux)
    slow = rescan_extend_schedule(slow_sched, remaining, aux)
    assert list(fast.items()) == list(slow.items())
    assert _bytes(schedule) == _bytes(slow_sched)
    _assert_timing_is_current(schedule)


def _tie_fixture():
    """Stop 10 scheduled; 11 and 12 are both H-neighbours of 10 only,
    so they enter with the same ``f_N = f(10)``."""
    positions = {10: Point(5, 0), 11: Point(6, 0), 12: Point(4, 0)}
    coverage = {
        10: frozenset({10, 1}),
        11: frozenset({11, 2}),
        12: frozenset({12, 3}),
    }
    charge_times = {1: 30.0, 2: 30.0, 3: 30.0, 10: 5.0, 11: 5.0, 12: 5.0}
    sched = ChargingSchedule(
        depot=Point(0, 0),
        positions=positions,
        coverage=coverage,
        charge_times=charge_times,
        charger=ChargerSpec(),
        num_tours=1,
    )
    sched.append_stop(0, 10)
    aux = nx.Graph([(10, 11), (10, 12)])
    return sched, aux


def test_equal_f_n_tie_goes_to_lower_node_id():
    sched, aux = _tie_fixture()
    oracle_sched = sched.copy()
    outcome = extend_schedule(sched, [12, 11], aux)
    # 11 is picked first and lands right after 10; 12 then ties on
    # f(10) again and is inserted after 10, ahead of 11.
    assert list(outcome) == [11, 12]
    assert sched.tours[0] == [10, 12, 11]
    assert list(rescan_extend_schedule(oracle_sched, [12, 11], aux)) == [11, 12]
    assert _bytes(sched) == _bytes(oracle_sched)


def test_disconnected_h_appends_then_extends_from_the_appended_stop():
    """30 touches nothing scheduled, so it is appended to the shortest
    tour; its H-neighbour 35 then gains an ``f_N`` from 30 alone and
    is inserted after it, while 15 goes after its own anchor."""
    positions = {
        10: Point(10, 0),
        15: Point(15, 0),
        30: Point(40, 0),
        35: Point(45, 0),
    }
    coverage = {
        10: frozenset({10, 1}),
        15: frozenset({15, 1, 2}),
        30: frozenset({30, 4}),
        35: frozenset({35, 5}),
    }
    charge_times = {1: 100.0, 2: 100.0, 4: 80.0, 5: 60.0}
    charge_times.update({v: 50.0 for v in positions})
    sched = ChargingSchedule(
        depot=Point(0, 0),
        positions=positions,
        coverage=coverage,
        charge_times=charge_times,
        charger=ChargerSpec(),
        num_tours=2,
    )
    sched.append_stop(0, 10)
    aux = nx.Graph([(10, 15), (30, 35)])
    oracle_sched = sched.copy()
    outcome = extend_schedule(sched, [35, 30, 15], aux)
    oracle = rescan_extend_schedule(oracle_sched, [35, 30, 15], aux)
    assert list(outcome.items()) == [
        (15, "case1"),
        (30, "appended"),
        (35, "case1"),
    ]
    assert list(outcome.items()) == list(oracle.items())
    assert sched.tours == [[10, 15], [30, 35]]
    assert _bytes(sched) == _bytes(oracle_sched)


def _lowered_finish_case(seed=0):
    """A zero-``τ'`` insertion that moves a later stop *earlier*.

    Tour 0 is ``[1, 3]``; candidate 2 lies on the segment between them
    and charges only a sensor with a zero charge time, and its one
    H-neighbour is 1. Inserting it gives 3 the finish
    ``f(1) + t(1, 2) + 0 + t(2, 3) + τ(3)``, which a seeded search over
    collinear triples picks one ulp *below* ``f(1) + t(1, 3) + τ(3)``.
    Candidate 4's only H-neighbour is 3; candidate 6's is stop 5 on
    tour 1, whose finish is made exactly 3's lowered one. So 4 and 6
    tie on ``f_N`` only once 4's value has come down, and the tie goes
    to 4.
    """
    rng = random.Random(seed)
    coverage = {v: frozenset({10 + v}) for v in range(1, 7)}
    aux = nx.Graph([(1, 2), (3, 4), (5, 6)])
    while True:
        px, py = rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)
        ux, uy = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        s1, s2, s3 = sorted(rng.uniform(1.0, 50.0) for _ in range(3))
        positions = {
            v: Point(px + s * ux, py + s * uy)
            for v, s in ((1, s1), (2, s2), (3, s3))
        }
        positions.update(
            {4: Point(px, py), 5: Point(3.0, 4.0), 6: Point(3.0, 5.0)}
        )
        charge_times = {11: 30.0, 12: 0.0, 13: 40.0, 14: 20.0, 16: 20.0}
        probe = ChargingSchedule(
            Point(0.0, 0.0), positions, coverage, charge_times,
            ChargerSpec(), 1,
        )
        probe.append_stop(0, 1)
        probe.append_stop(0, 3)
        before = probe.finish[3]
        probe.insert_stop_after(0, 1, 2)
        lowered = probe.finish[3]
        if not lowered < before:
            continue
        charge_times[15] = lowered - probe.travel_time(None, 5)
        schedule = ChargingSchedule(
            Point(0.0, 0.0), positions, coverage, charge_times,
            ChargerSpec(), 2,
        )
        schedule.append_stop(0, 1)
        schedule.append_stop(0, 3)
        schedule.append_stop(1, 5)
        if schedule.finish[5] == lowered:
            return schedule, aux


def test_lowered_finish_falls_back_to_rescan():
    schedule, aux = _lowered_finish_case()
    oracle_sched = schedule.copy()
    before = schedule.finish[3]
    with mock.patch.object(
        insertion,
        "latest_neighbor_finish",
        wraps=insertion.latest_neighbor_finish,
    ) as spy:
        outcome = extend_schedule(schedule, [2, 4, 6], aux)
    assert schedule.finish[3] < before
    # Three initial values plus the fallback's rescan of 4; the
    # raise-only path never rescans.
    assert spy.call_count == 4
    oracle = rescan_extend_schedule(oracle_sched, [2, 4, 6], aux)
    assert list(outcome.items()) == list(oracle.items())
    assert list(outcome.items()) == [
        (2, "case1"), (4, "case1"), (6, "case1")
    ]
    assert _bytes(schedule) == _bytes(oracle_sched)
