"""Planner protocol, registry and the unified reporting surface.

Every planner returns a :class:`~repro.core.schedule.ChargingSchedule`;
a one-to-one planner's stops each cover only their own sensor. The
pipeline layer registers them as named :class:`PlannerInfo` entries
producing a :class:`PlannedSchedule`: a transparent wrapper exposing
the common reporting surface (``longest_delay``, ``tour_delays``,
``sensor_finish_times``, ``covered_sensors``, ``validate``) while
delegating everything else to the wrapped schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
)

from repro.core.validation import ScheduleViolation, validate_schedule
from repro.energy.charging import ChargerSpec
from repro.network.topology import WRSN
from repro.core.context import PlanningContext


class Planner(Protocol):
    """The uniform planner call every registered algorithm satisfies."""

    def __call__(
        self,
        network: WRSN,
        request_ids: Sequence[int],
        num_chargers: int,
        charger: Optional[ChargerSpec] = None,
        lifetimes: Optional[Mapping[int, float]] = None,
        context: Optional[PlanningContext] = None,
        **kwargs: Any,
    ) -> Any:
        ...


@dataclass(frozen=True)
class PlannerInfo:
    """One registered planning algorithm.

    Attributes:
        name: registry key (also the CLI / bench display name).
        build: the uniform planner callable.
        multi_node: whether the planner charges multiple sensors per
            sojourn stop (the schedule report's ``kind``).
        paper: whether the algorithm is one of the paper's five
            (``Appro`` plus the four benchmarks); extension planners
            are excluded from paper-comparison surfaces.
    """

    name: str
    build: Planner
    multi_node: bool
    paper: bool = True


_REGISTRY: Dict[str, PlannerInfo] = {}


def register_planner(info: PlannerInfo) -> PlannerInfo:
    """Add a planner to the registry.

    Raises:
        ValueError: on a duplicate name.
    """
    if info.name in _REGISTRY:
        raise ValueError(f"planner {info.name!r} is already registered")
    _REGISTRY[info.name] = info
    return info


def unregister_planner(name: str) -> PlannerInfo:
    """Remove a planner from the registry and return its info.

    Exists for test fixtures and plug-in teardown; the built-in
    planners are registered for the life of the process.

    Raises:
        KeyError: for unknown names, listing the known ones.
    """
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise KeyError(
            f"unknown planner {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def get_planner(name: str) -> PlannerInfo:
    """Look up a registered planner.

    Raises:
        KeyError: for unknown names, listing the known ones.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown planner {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def planner_names(paper_only: bool = False) -> List[str]:
    """Registered planner names, in registration order."""
    return [
        name
        for name, info in _REGISTRY.items()
        if info.paper or not paper_only
    ]


class PlannedSchedule:
    """A planner's result behind the unified reporting surface.

    Wraps the planner's ``ChargingSchedule`` (``raw``); attribute
    access falls through to it, so consumers (``io.schedule_to_dict``,
    the fault executor, schedule repair) work on the wrapper or on
    ``raw`` alike.
    """

    def __init__(
        self,
        planner: str,
        raw: Any,
        multi_node: bool,
        context: Optional[PlanningContext] = None,
    ):
        self.planner = planner
        self.raw = raw
        self.multi_node = multi_node
        self.context = context

    # --- unified reporting surface -----------------------------------

    def longest_delay(self) -> float:
        """The objective: the longest tour delay, seconds."""
        return self.raw.longest_delay()

    def tour_delays(self) -> List[float]:
        """Per-MCV tour delay, seconds."""
        return self.raw.tour_delays()

    def sensor_finish_times(self) -> Dict[int, float]:
        """Charge-completion time per served sensor."""
        return self.raw.sensor_finish_times()

    def covered_sensors(self) -> Set[int]:
        """All sensors the schedule serves."""
        return self.raw.covered_sensors()

    @property
    def num_tours(self) -> int:
        return self.raw.num_tours

    def validate(
        self, required_sensors: Sequence[int]
    ) -> List[ScheduleViolation]:
        """Definition 1 violations against ``required_sensors``.

        When the planning context is attached and built the schedule's
        coverage, the validator's conflict engine reuses the context's
        memoized per-sensor stop-group index
        (:meth:`~repro.core.context.PlanningContext.sensor_stop_groups`)
        instead of re-inverting the coverage relation per call. Those
        groups are the charging disks; a one-to-one schedule covers
        less than its disks, so it is checked against its own coverage.
        """
        groups = None
        if self.context is not None:
            stops = self.raw.scheduled_stops()
            if self.context.built_coverage(self.raw.coverage, stops):
                groups = self.context.sensor_stop_groups(stops)
        return validate_schedule(self.raw, required_sensors, groups)

    # --- transparency ------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        # Only called when normal lookup fails: delegate to the
        # wrapped schedule so type-specific consumers keep working.
        if name == "raw":  # guard against recursion mid-construction
            raise AttributeError(name)
        return getattr(self.raw, name)

    def __repr__(self) -> str:
        return (
            f"PlannedSchedule(planner={self.planner!r}, "
            f"raw={type(self.raw).__name__}, "
            f"multi_node={self.multi_node})"
        )


def run_planner(
    name: str,
    network: WRSN,
    request_ids: Sequence[int],
    num_chargers: int,
    charger: Optional[ChargerSpec] = None,
    lifetimes: Optional[Mapping[int, float]] = None,
    context: Optional[PlanningContext] = None,
    **kwargs: Any,
) -> PlannedSchedule:
    """Run a registered planner through the unified pipeline.

    Builds a :class:`PlanningContext` when none is supplied (its lazy
    memos cost nothing until used, and its distance cache is shared per
    network), passes it to the planner and wraps the result.
    """
    info = get_planner(name)
    if context is None:
        context = PlanningContext(network, request_ids, charger)
    elif charger is not None and charger != context.charger:
        raise ValueError(
            "charger differs from the supplied context's ChargerSpec"
        )
    raw = info.build(
        network,
        request_ids,
        num_chargers,
        charger=context.charger,
        lifetimes=lifetimes,
        context=context,
        **kwargs,
    )
    return PlannedSchedule(
        planner=name, raw=raw, multi_node=info.multi_node, context=context
    )


__all__ = [
    "PlannedSchedule",
    "Planner",
    "PlannerInfo",
    "get_planner",
    "planner_names",
    "register_planner",
    "run_planner",
    "unregister_planner",
]
