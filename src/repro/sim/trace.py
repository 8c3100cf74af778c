"""Structured simulation traces.

Round-by-round records of a monitoring simulation, serializable to
JSON-lines, so long runs can be analysed offline (queue growth,
stability diagnosis, per-round request mix) without re-simulating.

:class:`TraceRecorder` wraps a scheduling algorithm and records one
:class:`RoundRecord` per invocation; it is a drop-in ``algorithm``
argument for :class:`~repro.sim.simulator.MonitoringSimulation`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, List, Union

from repro.pipeline.planner import get_planner, run_planner


@dataclass(frozen=True)
class RoundRecord:
    """One scheduling round's inputs and outcome."""

    index: int
    num_requests: int
    longest_delay_s: float
    min_residual_j: float
    mean_residual_j: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class SimulationTrace:
    """All rounds of one simulation run."""

    algorithm: str
    rounds: List[RoundRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rounds)

    def request_counts(self) -> List[int]:
        return [r.num_requests for r in self.rounds]

    def delays_s(self) -> List[float]:
        return [r.longest_delay_s for r in self.rounds]

    def is_diverging(self, window: int = 5) -> bool:
        """Heuristic stability diagnosis: the mean round delay of the
        last ``window`` rounds exceeds twice that of the first
        ``window`` (requires at least ``2 * window`` rounds)."""
        if len(self.rounds) < 2 * window:
            return False
        head = self.delays_s()[:window]
        tail = self.delays_s()[-window:]
        return sum(tail) / window > 2.0 * (sum(head) / window)

    def save_jsonl(self, path: Union[str, Path]) -> None:
        """Write one JSON object per round."""
        text = "\n".join(r.to_json() for r in self.rounds)
        Path(path).write_text(text + ("\n" if text else ""))

    @classmethod
    def load_jsonl(
        cls, path: Union[str, Path], algorithm: str = ""
    ) -> "SimulationTrace":
        """Read a trace written by :meth:`save_jsonl`."""
        trace = cls(algorithm=algorithm)
        for line in Path(path).read_text().splitlines():
            if line.strip():
                trace.rounds.append(RoundRecord(**json.loads(line)))
        return trace


class TraceRecorder:
    """Algorithm wrapper that records a :class:`RoundRecord` per call.

    Usage::

        recorder = TraceRecorder("Appro")
        MonitoringSimulation(net, recorder, num_chargers=2).run()
        recorder.trace.save_jsonl("rounds.jsonl")
    """

    def __init__(self, algorithm: Union[str, Callable]):
        if isinstance(algorithm, str):
            self._name = get_planner(algorithm).name
            self._inner = functools.partial(run_planner, self._name)
        else:
            self._name = getattr(algorithm, "__name__", "custom")
            self._inner = algorithm
        self.trace = SimulationTrace(algorithm=self._name)

    def __call__(
        self, network, request_ids, num_chargers, charger=None,
        lifetimes=None,
    ):
        result = self._inner(
            network, request_ids, num_chargers, charger=charger,
            lifetimes=lifetimes,
        )
        residuals = [
            network.sensor(sid).residual_j for sid in request_ids
        ]
        self.trace.rounds.append(
            RoundRecord(
                index=len(self.trace.rounds),
                num_requests=len(list(request_ids)),
                longest_delay_s=result.longest_delay(),
                min_residual_j=min(residuals, default=0.0),
                mean_residual_j=(
                    sum(residuals) / len(residuals) if residuals else 0.0
                ),
            )
        )
        return result
