"""Hypothesis fuzzing of the ``repro-job/1`` decoder and the daemon session.

Whatever JSON sits in whichever field — and however a line is cut
short, padded out or repeated — every non-blank input line must come
back as exactly one job or one structured error, and no exception may
escape :func:`repro.serve.jobs_from_lines` or
:meth:`repro.serve.DaemonSession.handle_line` / ``drain``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import JOB_FORMAT, RESULT_FORMAT, wrsn_to_dict
from repro.network.topology import random_wrsn
from repro.serve import (
    DAEMON_STATUS_FORMAT,
    DaemonConfig,
    DaemonSession,
    PlanningDaemon,
    jobs_from_lines,
)

NET = random_wrsn(num_sensors=12, seed=2)
IDS = list(NET.all_sensor_ids())

#: The first line of every fuzzed stream: a valid job labelling its
#: network, so later ``network_ref`` lines have something to hit.
HEAD = json.dumps(
    {
        "format": JOB_FORMAT,
        "network": wrsn_to_dict(NET),
        "network_id": "n0",
        "requests": IDS[:4],
        "num_chargers": 1,
        "planner": "K-EDF",
        "id": "head",
    }
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-1000, max_value=1000)
    | st.floats()
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

#: Well-formed values per field; the fuzzer mixes them with arbitrary
#: JSON so that records get past the early checks often enough to
#: exercise the later ones (and the planner itself).
VALID = {
    "format": st.just(JOB_FORMAT),
    "network": st.just(wrsn_to_dict(NET)),
    "network_path": st.just("no-such-network.json"),
    "network_ref": st.sampled_from(["n0", "n1"]),
    "network_id": st.sampled_from(["n0", "n1"]),
    "requests": st.lists(st.sampled_from(IDS), min_size=1, max_size=6),
    "num_chargers": st.integers(min_value=1, max_value=3),
    "planner": st.sampled_from(["Appro", "K-EDF", "Nope"]),
    "id": st.sampled_from(["a", "b", ""]),  # duplicate ids on purpose
    "deadline_s": st.floats(min_value=1e-3, max_value=60.0),
}


@st.composite
def records(draw):
    record = {}
    for name, valid in VALID.items():
        choice = draw(st.sampled_from(["absent", "valid", "valid", "any"]))
        if choice == "valid":
            record[name] = draw(valid)
        elif choice == "any":
            record[name] = draw(json_values)
    return record


@st.composite
def lines(draw):
    kind = draw(
        st.sampled_from(["record", "record", "truncated", "oversized",
                         "any", "blank", "nested"])
    )
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "nested":  # deep enough to exhaust the JSON decoder's stack
        return "[" * 100_000 + "]" * 100_000
    if kind == "any":
        return json.dumps(draw(json_values))
    text = json.dumps(draw(records()))
    if kind == "truncated":
        return text[: draw(st.integers(min_value=1, max_value=len(text)))]
    if kind == "oversized":
        record = json.loads(text)
        field = draw(st.sampled_from(["id", "planner", "requests", "pad"]))
        record[field] = (
            [IDS[0]] * 20_000 if field == "requests" else "x" * 200_000
        )
        return json.dumps(record)
    return text


streams = st.lists(lines(), min_size=1, max_size=5).map(
    lambda tail: [HEAD, *tail]
)


def _non_blank(stream):
    return [n for n, line in enumerate(stream, start=1) if line.strip()]


@settings(max_examples=80, deadline=None)
@given(stream=streams)
def test_decoder_answers_every_line_once(stream):
    jobs, errors = jobs_from_lines(stream)
    answered = [n for n, _ in jobs] + [e.lineno for e in errors]
    assert sorted(answered) == _non_blank(stream)
    assert all(isinstance(e.error, str) and e.error for e in errors)


@pytest.fixture(scope="module")
def daemon():
    with PlanningDaemon(DaemonConfig(workers=1)) as running:
        yield running


@settings(max_examples=40, deadline=None)
@given(stream=streams)
def test_daemon_session_answers_every_line_once(daemon, stream):
    session = DaemonSession(daemon)
    out = []
    for lineno, raw in enumerate(stream, start=1):
        out.extend(session.handle_line(raw, lineno))
    out.extend(session.drain())
    assert len(out) == len(_non_blank(stream))
    for line in out:
        row = json.loads(line)
        if row["format"] == DAEMON_STATUS_FORMAT:
            continue  # an arbitrary top-level object carrying "op"
        assert row["format"] == RESULT_FORMAT
        assert row["status"] in ("ok", "error", "rejected", "timeout",
                                 "pool-broken")
        if row["status"] != "ok":
            assert row["error"]
