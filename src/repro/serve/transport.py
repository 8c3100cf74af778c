"""JSONL transports for the planning daemon: stdio and unix socket.

The wire protocol is the repo's existing line formats, reused verbatim:
clients send ``repro-job/1`` records (inline ``network``,
``network_ref`` back-references — scoped per connection — or
``network_path``), optionally extended with a ``deadline_s`` latency
budget for admission control, and receive one ``repro-result/1`` line
per input line **in input order**: planned results, structured
rejections, and per-line parse errors all flow through the same
ordered stream, so a client can zip its requests against the responses
without bookkeeping.

Control lines are JSON objects carrying an ``"op"`` key instead of a
job format tag; ``{"op": "status"}`` answers with the daemon's
``repro-daemon-status/1`` document in-stream.

Two servers share all of that through :class:`DaemonSession`:

* :func:`serve_stream` — one session over arbitrary file objects;
  ``repro daemon`` without a socket runs this over stdin/stdout.
* :func:`make_socket_server` — a threading unix-domain-socket server,
  one session per connection, all feeding one shared
  :class:`~repro.serve.daemon.PlanningDaemon` (which is what makes
  cross-connection context reuse and coalescing possible).

:func:`request` / :func:`request_status` are the matching client
helpers used by the CI smoke test (``tools/daemon_smoke.py``) and the
tests.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
from typing import IO, Dict, Iterator, List, Optional, Sequence, Union

from repro.io import dump_jsonl_line
from repro.serve.daemon import JobTicket, PlanningDaemon
from repro.serve.jobs import (
    JobLineError,
    JobStreamReader,
    deadline_from_record,
)

#: Accepted control operations.
OPS = ("status",)


class DaemonSession:
    """One client conversation: parse, submit, answer in order.

    Holds the per-connection :class:`JobStreamReader` (so
    ``network_ref`` labels resolve within the connection) and the
    ordered pending list that guarantees the one-response-per-line
    contract. Not thread-safe; each connection gets its own session.
    """

    def __init__(self, daemon: PlanningDaemon):
        self.daemon = daemon
        self.reader = JobStreamReader()
        #: Responses in input order: resolved dicts or live tickets.
        self._pending: List[Union[Dict, JobTicket]] = []

    # ------------------------------------------------------------------

    def handle_line(self, raw: str, lineno: int) -> Iterator[str]:
        """Process one input line; yield any response lines now ready.

        Responses are released strictly in input order: a line's
        response is held back while an earlier line's job is still
        planning.
        """
        line = raw.strip()
        if line:
            self._pending.append(self._dispatch(line, lineno))
        yield from self._flush_ready()

    def drain(self) -> Iterator[str]:
        """Block for every outstanding response, in order (EOF path)."""
        while self._pending:
            head = self._pending.pop(0)
            record = head.wait() if isinstance(head, JobTicket) else head
            yield dump_jsonl_line(record)

    # ------------------------------------------------------------------

    def _dispatch(
        self, line: str, lineno: int
    ) -> Union[Dict, JobTicket]:
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            return JobLineError(
                lineno, f"job line {lineno}: malformed JSON: {exc}"
            ).to_result_dict()
        if isinstance(record, dict) and "op" in record:
            return self._control(record, lineno)
        try:
            job = self.reader.job_from_record(record, lineno)
            deadline_s = deadline_from_record(record, lineno)
        except (ValueError, TypeError, KeyError) as exc:
            return JobLineError(lineno, str(exc)).to_result_dict()
        return self.daemon.submit(job, deadline_s=deadline_s)

    def _control(self, record: Dict, lineno: int) -> Dict:
        op = record.get("op")
        if op == "status":
            return self.daemon.status()
        return JobLineError(
            lineno,
            f"job line {lineno}: unknown op {op!r}; "
            f"supported: {', '.join(OPS)}",
        ).to_result_dict()

    def _flush_ready(self) -> Iterator[str]:
        while self._pending:
            head = self._pending[0]
            if isinstance(head, JobTicket):
                if not head.done:
                    return
                record = head.wait()
            else:
                record = head
            self._pending.pop(0)
            yield dump_jsonl_line(record)


def serve_stream(
    daemon: PlanningDaemon, rfile: IO[str], wfile: IO[str]
) -> int:
    """Run one session over text streams until EOF; lines answered.

    Returns the number of response lines written. Responses are
    flushed as soon as ordering allows, so an interactive client sees
    results while later requests are still being typed.
    """
    session = DaemonSession(daemon)
    written = 0
    for lineno, raw in enumerate(rfile, start=1):
        for out in session.handle_line(raw, lineno):
            wfile.write(out + "\n")
            written += 1
        wfile.flush()
    for out in session.drain():
        wfile.write(out + "\n")
        written += 1
    wfile.flush()
    return written


# ----------------------------------------------------------------------
# Unix domain socket server
# ----------------------------------------------------------------------

class _SessionHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        daemon = self.server.daemon  # type: ignore[attr-defined]
        session = DaemonSession(daemon)
        for lineno, raw_bytes in enumerate(self.rfile, start=1):
            raw = raw_bytes.decode("utf-8", errors="replace")
            for out in session.handle_line(raw, lineno):
                self.wfile.write((out + "\n").encode())
            self.wfile.flush()
        for out in session.drain():
            self.wfile.write((out + "\n").encode())
        self.wfile.flush()


class DaemonSocketServer(
    socketserver.ThreadingMixIn, socketserver.UnixStreamServer
):
    """Threaded unix-socket front; one :class:`DaemonSession` per
    connection, one shared :class:`PlanningDaemon` behind them."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, daemon: PlanningDaemon, socket_path: str):
        self.daemon = daemon
        self.socket_path = socket_path
        super().__init__(socket_path, _SessionHandler)

    def close(self) -> None:
        self.server_close()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass


def make_socket_server(
    daemon: PlanningDaemon, socket_path: str
) -> DaemonSocketServer:
    """Bind a :class:`DaemonSocketServer`, replacing a stale socket."""
    if os.path.exists(socket_path):
        os.unlink(socket_path)
    return DaemonSocketServer(daemon, socket_path)


# ----------------------------------------------------------------------
# Client helpers
# ----------------------------------------------------------------------

def request(
    socket_path: str,
    lines: Sequence[str],
    timeout_s: Optional[float] = 60.0,
) -> List[str]:
    """Send request lines over the socket; collect all response lines.

    Half-closes the write side after sending, then reads until the
    server finishes the session — the batch-style client used by the
    smoke test.
    """
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout_s)
        sock.connect(socket_path)
        payload = "".join(line.rstrip("\n") + "\n" for line in lines)
        sock.sendall(payload.encode())
        sock.shutdown(socket.SHUT_WR)
        chunks: List[bytes] = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks).decode().splitlines()


def request_status(
    socket_path: str, timeout_s: Optional[float] = 10.0
) -> Dict:
    """Fetch the daemon's status document over its socket."""
    lines = request(
        socket_path, [json.dumps({"op": "status"})], timeout_s=timeout_s
    )
    if not lines:
        raise RuntimeError("daemon closed the connection without a status")
    return json.loads(lines[0])


__all__ = [
    "DaemonSession",
    "DaemonSocketServer",
    "OPS",
    "make_socket_server",
    "request",
    "request_status",
    "serve_stream",
]
