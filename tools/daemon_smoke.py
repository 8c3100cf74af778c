"""End-to-end smoke test for the always-on planning daemon.

Exercises the daemon exactly the way production would — as a separate
OS process behind a unix socket — and checks the full robustness
contract in one pass:

1. start ``repro daemon --socket`` as a subprocess and wait for the
   socket to appear;
2. submit a small mixed job batch over the socket
   (``repro-job/1`` JSONL in, ``repro-result/1`` JSONL out, one line
   per line in input order);
3. byte-compare every planned result (schedule + longest delay,
   canonical JSON) against serial :func:`repro.pipeline.run_planner`
   on the same jobs — the daemon's warm-context/coalescing machinery
   must be invisible in the output;
4. send one more line asking for ``"num_chargers": 1000000000`` and
   require a ``rejected`` / ``payload-too-large`` record in its input
   position (admission refuses more chargers than sensors);
5. fetch the in-stream ``{"op": "status"}`` document and sanity-check
   its ledger;
6. SIGTERM the daemon and require a graceful drain: exit code 0 and a
   final ``repro-daemon-status/1`` document on stderr.

Run from CI (or by hand) as::

    python tools/daemon_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.io import dump_jsonl_line, schedule_to_dict  # noqa: E402
from repro.network.topology import random_wrsn  # noqa: E402
from repro.pipeline import run_planner  # noqa: E402
from repro.serve import PlanJob  # noqa: E402
from repro.serve.jobs import job_to_dict, jobs_to_jsonl  # noqa: E402
from repro.serve.transport import request, request_status  # noqa: E402

SOCKET_DEADLINE_S = 30.0
DRAIN_DEADLINE_S = 60.0

#: A decodable charger count far beyond any network's sensor count.
HUGE_FLEET = 1_000_000_000


def build_jobs(num_sensors: int = 25, seed: int = 0) -> List[PlanJob]:
    """A small batch: two planners x two charger counts, one network."""
    net = random_wrsn(num_sensors=num_sensors, seed=seed + 77)
    rng = np.random.default_rng(seed + 78)
    net.set_residuals(
        {
            sid: float(rng.uniform(0.0, 0.2)) * net.sensor(sid).capacity_j
            for sid in net.all_sensor_ids()
        }
    )
    everyone = tuple(net.all_sensor_ids())
    jobs: List[PlanJob] = []
    for planner in ("Appro", "K-EDF"):
        for k in (1, 2):
            jobs.append(
                PlanJob(net, everyone, k, planner, f"smoke-{len(jobs)}")
            )
    return jobs


def parity_line(job_id: str, longest_delay_s: float, schedule: dict) -> str:
    """Canonical byte string for the deterministic fields of a result."""
    return dump_jsonl_line(
        {
            "id": job_id,
            "longest_delay_s": longest_delay_s,
            "schedule": schedule,
        }
    )


def serial_baseline(jobs: List[PlanJob]) -> List[str]:
    """Plan every job with plain run_planner; one parity line each."""
    lines = []
    for job in jobs:
        planned = run_planner(
            job.planner, job.network, job.request_ids, job.num_chargers
        )
        lines.append(
            parity_line(
                job.job_id,
                planned.longest_delay(),
                schedule_to_dict(planned, algorithm=job.planner),
            )
        )
    return lines


def spawn_daemon(socket_path: str) -> subprocess.Popen:
    """Start ``repro daemon --socket`` and wait for the socket."""
    env = dict(os.environ)
    if _SRC.is_dir():
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{_SRC}{os.pathsep}{existing}" if existing else str(_SRC)
        )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys; from repro.cli.main import main; "
            "sys.exit(main(sys.argv[1:]))",
            "daemon",
            "--socket",
            socket_path,
            "--workers",
            "1",
        ],
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    deadline = time.monotonic() + SOCKET_DEADLINE_S
    while not os.path.exists(socket_path):
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited early (rc={proc.returncode}): "
                f"{proc.stderr.read()}"
            )
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError(
                f"daemon socket never appeared at {socket_path}"
            )
        time.sleep(0.05)
    return proc


def main() -> int:
    jobs = build_jobs()
    print(f"planning {len(jobs)} jobs serially for the baseline ...")
    expected = serial_baseline(jobs)

    with tempfile.TemporaryDirectory() as tmp:
        socket_path = os.path.join(tmp, "daemon.sock")
        proc = spawn_daemon(socket_path)
        try:
            print(f"daemon up (pid {proc.pid}); submitting batch ...")
            huge = PlanJob(
                jobs[0].network, jobs[0].request_ids, HUGE_FLEET,
                "K-EDF", "smoke-huge",
            )
            huge_line = dump_jsonl_line(
                job_to_dict(huge, network_ref="net-0")
            )
            responses = request(
                socket_path, jobs_to_jsonl(jobs).splitlines() + [huge_line]
            )
            if len(responses) != len(jobs) + 1:
                raise SystemExit(
                    f"FAIL: {len(jobs) + 1} jobs in, "
                    f"{len(responses)} responses out"
                )
            rejected = json.loads(responses.pop())
            if (
                rejected.get("id") != huge.job_id
                or rejected.get("status") != "rejected"
                or rejected.get("reason") != "payload-too-large"
            ):
                raise SystemExit(
                    f"FAIL: num_chargers={HUGE_FLEET} not rejected as "
                    f"payload-too-large in input order: {rejected}"
                )
            print(f"admission ok: num_chargers={HUGE_FLEET} rejected "
                  f"as payload-too-large")
            for job, expect, line in zip(jobs, expected, responses):
                record = json.loads(line)
                if record.get("id") != job.job_id:
                    raise SystemExit(
                        f"FAIL: response order broken — expected "
                        f"{job.job_id}, got {record.get('id')}"
                    )
                if record.get("status") != "ok":
                    raise SystemExit(
                        f"FAIL: {job.job_id} status {record.get('status')}"
                        f" ({record.get('error')})"
                    )
                got = parity_line(
                    record["id"],
                    record["longest_delay_s"],
                    record["schedule"],
                )
                if got != expect:
                    raise SystemExit(
                        f"FAIL: {job.job_id} diverges from serial "
                        f"run_planner:\n  daemon : {got[:200]}\n"
                        f"  serial : {expect[:200]}"
                    )
            print(f"parity ok: {len(jobs)} daemon results byte-identical "
                  f"to serial run_planner")

            status = request_status(socket_path)
            if status.get("format") != "repro-daemon-status/1":
                raise SystemExit(
                    f"FAIL: bad status format {status.get('format')!r}"
                )
            submitted = status["counters"]["submitted"]
            if submitted < len(jobs):
                raise SystemExit(
                    f"FAIL: status ledger saw {submitted} jobs, "
                    f"expected >= {len(jobs)}"
                )
            print(f"status ok: {submitted} submitted, "
                  f"context hit rate "
                  f"{status['context_cache']['hit_rate']:.0%}")

            print("sending SIGTERM; expecting a graceful drain ...")
            proc.send_signal(signal.SIGTERM)
            try:
                _, stderr = proc.communicate(timeout=DRAIN_DEADLINE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise SystemExit("FAIL: daemon hung on SIGTERM drain")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    if proc.returncode != 0:
        raise SystemExit(
            f"FAIL: daemon exited rc={proc.returncode}:\n{stderr}"
        )
    if "draining" not in stderr:
        raise SystemExit(
            f"FAIL: no drain notice on stderr:\n{stderr}"
        )
    final = json.loads(stderr.strip().splitlines()[-1])
    if final.get("format") != "repro-daemon-status/1":
        raise SystemExit(
            "FAIL: final stderr line is not a status document"
        )
    print("drain ok: exit 0, final status document on stderr")
    print("daemon smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
