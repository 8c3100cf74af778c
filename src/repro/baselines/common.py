"""Shared machinery for the one-to-one baselines.

A one-to-one plan is an ordinary
:class:`~repro.core.schedule.ChargingSchedule` whose every stop charges
only its own sensor: :func:`one_to_one_schedule` gives each requested
sensor the coverage ``{v}``, so the duration a stop fixes on append is
that sensor's own full-charge time and no two stops share a sensor.
Validation, fault execution, repair and serialization then treat all
seven planners alike.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.core.context import PlanningContext
from repro.core.schedule import ChargingSchedule
from repro.energy.charging import ChargerSpec
from repro.network.topology import WRSN


def one_to_one_schedule(
    context: PlanningContext,
    requests: Sequence[int],
    charger: ChargerSpec,
    num_chargers: int,
    sequences: Sequence[Sequence[int]] = (),
) -> ChargingSchedule:
    """A schedule whose stops each charge their own sensor only.

    Args:
        context: supplies the positions, the shared distance cache and
            the memoized charge times.
        requests: the sensors that may become stops.
        charger: MCV parameters (the travel speed sets the legs).
        num_chargers: ``K``.
        sequences: per-vehicle visiting orders; sequence ``k`` is
            appended to tour ``k`` in order. More may be appended
            later with :meth:`~repro.core.schedule.ChargingSchedule.append_stop`.
    """
    schedule = ChargingSchedule(
        depot=context.depot,
        positions=context.positions,
        coverage={sid: frozenset((sid,)) for sid in requests},
        charge_times=context.charge_times_for(requests),
        charger=charger,
        num_tours=num_chargers,
        distance=context.distance,
    )
    for k, sequence in enumerate(sequences):
        for sid in sequence:
            schedule.append_stop(k, sid)
    return schedule


def default_lifetimes(
    network: WRSN,
    requests: Sequence[int],
    lifetimes: Optional[Mapping[int, float]],
) -> Dict[int, float]:
    """Residual lifetime per requested sensor, in seconds.

    When the caller (typically the simulator) does not supply true
    lifetimes, fall back to residual energy divided by a nominal draw
    proportional to the sensor's own data rate — preserving the
    urgency *ordering* that EDF-style baselines rely on.
    """
    if lifetimes is not None:
        return {sid: float(lifetimes[sid]) for sid in requests}
    out: Dict[int, float] = {}
    for sid in requests:
        sensor = network.sensor(sid)
        nominal_draw_w = max(sensor.data_rate_bps * 55e-9, 1e-12)
        out[sid] = sensor.residual_j / nominal_draw_w
    return out
