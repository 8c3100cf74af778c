"""Fault specifications and per-round fault draws.

A *spec* describes a class of failures and how often it strikes; the
seeded injector (:mod:`repro.sim.faults.injector`) turns a tuple of
specs into one concrete :class:`RoundFaults` draw per scheduling round.
Specs are plain frozen dataclasses so fault scenarios are hashable,
comparable and trivially serialisable; every stochastic choice is
deferred to the injector so the same :class:`FaultPlan` always yields
the same faults for the same round — the property ``repro eval``
relies on to compare algorithms under *identical* fault seeds.

The five fault classes mirror what field deployments report:

* :class:`MCVBreakdown` — a vehicle dies mid-round; its remaining
  stops must be repaired onto the surviving tours
  (:mod:`repro.core.repair`).
* :class:`ChargeDroop` — the charger delivers less power than rated,
  stretching every charging duration.
* :class:`ChargeInterruption` — one stop's charge pauses (obstacle,
  thermal cutoff) for a fixed number of seconds.
* :class:`TravelSlowdown` — terrain/weather stretches travel legs.
* :class:`SensorFailure` — a sensor's hardware bricks; it leaves the
  monitored population.
* :class:`DepotCommDelay` — the depot learns about a breakdown late,
  delaying when the repair can take effect.
* :class:`RequestSurge` — a correlated demand spike (battery sag in a
  cold snap, a duty-cycle burst): a slice of the *healthy* population
  drains below the request threshold at once, flooding the round's
  request set. The only demand-side fault — it stresses admission and
  batching rather than tour execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple, Union

from repro.units import approx_eq


@dataclass(frozen=True)
class MCVBreakdown:
    """A vehicle fails mid-round with the given per-round probability.

    Attributes:
        probability: per-round chance of a breakdown.
        vehicle: which vehicle fails; ``None`` draws uniformly.
        at_fraction: when it fails, as a fraction of the round's
            planned longest delay; ``None`` draws uniformly in
            ``[0.1, 0.9]``.
    """

    probability: float = 1.0
    vehicle: Optional[int] = None
    at_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        if self.at_fraction is not None and not 0.0 < self.at_fraction < 1.0:
            raise ValueError(
                f"at_fraction must be in (0, 1), got {self.at_fraction}"
            )


@dataclass(frozen=True)
class ChargeDroop:
    """Charge-rate droop: durations stretch by a factor in
    ``[min_factor, max_factor]`` (both >= 1)."""

    probability: float = 1.0
    min_factor: float = 1.05
    max_factor: float = 1.3

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        if not 1.0 <= self.min_factor <= self.max_factor:
            raise ValueError(
                f"need 1 <= min_factor <= max_factor, got "
                f"[{self.min_factor}, {self.max_factor}]"
            )


@dataclass(frozen=True)
class ChargeInterruption:
    """One stop's charge pauses for ``[min_pause_s, max_pause_s]``
    seconds; which stop is hit is drawn by rank fraction so the draw is
    schedule-size independent."""

    probability: float = 1.0
    min_pause_s: float = 60.0
    max_pause_s: float = 600.0

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        if not 0.0 <= self.min_pause_s <= self.max_pause_s:
            raise ValueError(
                f"need 0 <= min_pause_s <= max_pause_s, got "
                f"[{self.min_pause_s}, {self.max_pause_s}]"
            )


@dataclass(frozen=True)
class TravelSlowdown:
    """Travel legs stretch by a factor in ``[min_factor, max_factor]``."""

    probability: float = 1.0
    min_factor: float = 1.05
    max_factor: float = 1.5

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        if not 1.0 <= self.min_factor <= self.max_factor:
            raise ValueError(
                f"need 1 <= min_factor <= max_factor, got "
                f"[{self.min_factor}, {self.max_factor}]"
            )


@dataclass(frozen=True)
class SensorFailure:
    """With the given per-round probability, one uniformly-drawn sensor
    permanently leaves the monitored population."""

    probability: float = 0.05

    def __post_init__(self) -> None:
        _check_probability(self.probability)


@dataclass(frozen=True)
class DepotCommDelay:
    """Breakdown notification reaches the depot
    ``[min_delay_s, max_delay_s]`` seconds late."""

    probability: float = 1.0
    min_delay_s: float = 30.0
    max_delay_s: float = 300.0

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        if not 0.0 <= self.min_delay_s <= self.max_delay_s:
            raise ValueError(
                f"need 0 <= min_delay_s <= max_delay_s, got "
                f"[{self.min_delay_s}, {self.max_delay_s}]"
            )


@dataclass(frozen=True)
class RequestSurge:
    """With the given per-round probability, a fraction of the
    above-threshold sensors (drawn in ``[min_fraction, max_fraction]``)
    abruptly drains to just below the request threshold and joins the
    round's request set. Which sensors are hit is drawn by rank
    fraction so the draw is population-size independent."""

    probability: float = 1.0
    min_fraction: float = 0.2
    max_fraction: float = 0.6

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        if not 0.0 <= self.min_fraction <= self.max_fraction <= 1.0:
            raise ValueError(
                f"need 0 <= min_fraction <= max_fraction <= 1, got "
                f"[{self.min_fraction}, {self.max_fraction}]"
            )


FaultSpec = Union[
    MCVBreakdown,
    ChargeDroop,
    ChargeInterruption,
    TravelSlowdown,
    SensorFailure,
    DepotCommDelay,
    RequestSurge,
]


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded composition of fault specs.

    The plan is pure data; :func:`repro.sim.faults.injector.
    draw_round_faults` turns it into concrete per-round draws.

    Attributes:
        specs: the composed fault specs.
        seed: base seed; combined with the round index so every round
            gets an independent but reproducible stream.
        name: scenario name (for reports).
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same scenario under a different seed."""
        return FaultPlan(specs=self.specs, seed=seed, name=self.name)


@dataclass(frozen=True)
class BreakdownEvent:
    """A realized breakdown: which vehicle, when (as a fraction of the
    round's planned longest delay — the executor converts to seconds
    once the planned delay is known)."""

    vehicle: int
    at_fraction: float


@dataclass(frozen=True)
class RoundFaults:
    """Everything that goes wrong in one scheduling round.

    ``NO_FAULTS`` (all defaults) is the identity draw: executing under
    it reproduces the planned timeline exactly.
    """

    breakdown: Optional[BreakdownEvent] = None
    charge_factor: float = 1.0
    travel_factor: float = 1.0
    interrupted_rank: Optional[float] = None
    interruption_pause_s: float = 0.0
    comm_delay_s: float = 0.0
    failed_sensors: FrozenSet[int] = frozenset()
    surge_fraction: float = 0.0
    surge_rank: float = 0.0

    @property
    def any(self) -> bool:
        """Whether anything at all was injected this round."""
        return (
            self.breakdown is not None
            or not approx_eq(self.charge_factor, 1.0)
            or not approx_eq(self.travel_factor, 1.0)
            or self.interrupted_rank is not None
            or bool(self.failed_sensors)
            or self.surge_fraction > 0.0
        )


#: The identity draw — nothing goes wrong.
NO_FAULTS = RoundFaults()


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")


__all__ = [
    "BreakdownEvent",
    "ChargeDroop",
    "ChargeInterruption",
    "DepotCommDelay",
    "FaultPlan",
    "FaultSpec",
    "MCVBreakdown",
    "NO_FAULTS",
    "RequestSurge",
    "RoundFaults",
    "SensorFailure",
    "TravelSlowdown",
]
