"""Paper-parameter workload generation (Section VI-A).

One place owns every evaluation constant of the paper:

=====================  =======================================
sensors ``n``          200 – 1200, uniform in 100 × 100 m²
BS / depot             co-located at the field center
battery capacity       10.8 kJ
sensing rate ``b_i``   uniform in ``[b_min, b_max]``,
                       ``b_min = 1 kbps``, ``b_max = 50 kbps``
charging radius γ      2.7 m
chargers ``K``         1 – 5
travel speed ``s``     1 m/s
charging rate η        2 W  (full charge = 1.5 h)
request threshold      20 % of capacity
monitoring ``T_M``     one year
instances per point    100 (mean reported)
=====================  =======================================

:class:`PaperParams` bundles them; :func:`make_instance` builds a
seeded :class:`~repro.network.topology.WRSN`. Initial battery levels
are drawn uniformly in ``[threshold + margin, 1]`` of capacity so the
long-run simulation starts from a desynchronised steady state instead
of an artificial all-full thundering herd (the paper does not specify
initial levels; this choice only affects the first few rounds of the
year).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from repro.energy.charging import ChargerSpec
from repro.geometry.deployment import Field
from repro.network.topology import WRSN, random_wrsn
from repro.sim.simulator import SECONDS_PER_YEAR


@dataclass(frozen=True)
class PaperParams:
    """All evaluation constants of Section VI-A."""

    num_sensors: int = 1000
    field_size_m: float = 100.0
    capacity_j: float = 10_800.0
    b_min_bps: float = 1_000.0
    b_max_bps: float = 50_000.0
    charge_radius_m: float = 2.7
    num_chargers: int = 2
    travel_speed_mps: float = 1.0
    charge_rate_w: float = 2.0
    request_threshold: float = 0.2
    horizon_s: float = SECONDS_PER_YEAR
    comm_range_m: float = 20.0
    #: Initial levels drawn uniformly from
    #: ``[request_threshold + initial_margin, 1]`` of capacity.
    initial_margin: float = 0.1

    def charger(self) -> ChargerSpec:
        """The MCV parameters as a :class:`ChargerSpec`."""
        return ChargerSpec(
            charge_rate_w=self.charge_rate_w,
            charge_radius_m=self.charge_radius_m,
            travel_speed_mps=self.travel_speed_mps,
        )

    def field(self) -> Field:
        return Field(width=self.field_size_m, height=self.field_size_m)

    def with_overrides(self, **kwargs) -> "PaperParams":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


def make_instance(params: PaperParams, seed: int) -> WRSN:
    """Build one seeded WRSN instance under ``params``.

    Deterministic: the same ``(params, seed)`` pair always yields the
    same deployment, rates and initial battery levels.
    """
    network = random_wrsn(
        num_sensors=params.num_sensors,
        field=params.field(),
        seed=seed,
        capacity_j=params.capacity_j,
        b_min_bps=params.b_min_bps,
        b_max_bps=params.b_max_bps,
        comm_range_m=params.comm_range_m,
    )
    rng = np.random.default_rng(seed + 1_000_003)
    low = min(params.request_threshold + params.initial_margin, 1.0)
    fractions = rng.uniform(low, 1.0, len(network))
    network.set_residuals(
        {
            sid: float(frac) * params.capacity_j
            for sid, frac in zip(network.all_sensor_ids(), fractions)
        }
    )
    return network


# ----------------------------------------------------------------------
# Benchmark-scale knobs (environment-overridable)
# ----------------------------------------------------------------------

#: Paper scale: 100 instances per sweep point, one-year horizon. The
#: default bench run uses a reduced scale so the whole suite finishes
#: in minutes; set these environment variables to reproduce the paper's
#: exact averaging scale.
ENV_INSTANCES = "REPRO_BENCH_INSTANCES"
ENV_HORIZON_DAYS = "REPRO_BENCH_HORIZON_DAYS"

DEFAULT_BENCH_INSTANCES = 2
DEFAULT_BENCH_HORIZON_DAYS = 40.0


def bench_instances() -> int:
    """Instances per sweep point (env-overridable)."""
    value = int(os.environ.get(ENV_INSTANCES, DEFAULT_BENCH_INSTANCES))
    if value <= 0:
        raise ValueError(f"{ENV_INSTANCES} must be positive, got {value}")
    return value


def bench_horizon_s() -> float:
    """Monitoring horizon for bench runs (env-overridable), seconds."""
    days = float(
        os.environ.get(ENV_HORIZON_DAYS, DEFAULT_BENCH_HORIZON_DAYS)
    )
    if days <= 0:
        raise ValueError(f"{ENV_HORIZON_DAYS} must be positive, got {days}")
    return days * 24.0 * 3600.0

