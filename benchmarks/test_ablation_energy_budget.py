"""Ablation: per-tour MCV energy budgets (beyond-the-paper).

The paper assumes unconstrained vehicle batteries. This bench sweeps
the battery capacity and reports (a) the minimum fleet able to serve a
fixed request set and (b) the achieved min-max delay at a fixed fleet —
quantifying how the assumption affects the headline numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.context import PlanningContext
from repro.energy.charging import ChargerSpec
from repro.network.topology import random_wrsn
from repro.tours.energy_budget import (
    MCVEnergyModel,
    minimum_chargers_energy_constrained,
    solve_k_minmax_energy_constrained,
    tour_energy,
)

#: Battery sweep, in kJ. The largest value is effectively unconstrained
#: for this instance.
BATTERIES_KJ = (200, 500, 1000, 100_000)


@pytest.fixture(scope="module")
def instance():
    net = random_wrsn(num_sensors=150, seed=701)
    rng = np.random.default_rng(702)
    net.set_residuals(
        {
            sid: float(rng.uniform(0, 0.2)) * 10_800.0
            for sid in net.all_sensor_ids()
        }
    )
    return net


@pytest.mark.parametrize("battery_kj", BATTERIES_KJ)
def test_ablation_battery_capacity(benchmark, instance, battery_kj):
    spec = ChargerSpec()
    requests = instance.all_sensor_ids()
    positions = instance.positions()
    depot = instance.depot.position
    charge_times = PlanningContext(instance, requests, spec).charge_times_for(
        requests
    )
    model = MCVEnergyModel(
        battery_j=battery_kj * 1000.0,
        travel_j_per_m=10.0,
        charge_rate_w=spec.charge_rate_w,
        transfer_efficiency=0.5,
    )

    def run():
        k, tours = minimum_chargers_energy_constrained(
            requests, positions, depot, spec.travel_speed_mps,
            lambda sid: charge_times[sid], model,
        )
        return k, tours

    k, tours = benchmark.pedantic(run, rounds=1, iterations=1)
    assert k is not None
    max_energy = max(
        (
            tour_energy(t, positions, depot, model,
                        lambda sid: charge_times[sid])
            for t in tours if t
        ),
        default=0.0,
    )
    print(
        f"\n[battery={battery_kj}kJ] min fleet={k} "
        f"max tour energy={max_energy / 1000:.0f}kJ"
    )


def test_smaller_battery_needs_no_fewer_vehicles(instance):
    spec = ChargerSpec()
    requests = instance.all_sensor_ids()
    positions = instance.positions()
    depot = instance.depot.position
    charge_times = PlanningContext(instance, requests, spec).charge_times_for(
        requests
    )
    fleets = []
    for battery_kj in (300, 3000):
        model = MCVEnergyModel(
            battery_j=battery_kj * 1000.0, travel_j_per_m=10.0,
            charge_rate_w=spec.charge_rate_w, transfer_efficiency=0.5,
        )
        k, _ = minimum_chargers_energy_constrained(
            requests, positions, depot, spec.travel_speed_mps,
            lambda sid: charge_times[sid], model,
        )
        fleets.append(k)
    assert fleets[0] >= fleets[1]


def test_budget_inflates_delay_at_fixed_fleet(instance):
    """At a fixed fleet, a tight battery forces more, shorter tours per
    vehicle... infeasible at K=2; with generous batteries the delay
    matches the unconstrained solver."""
    spec = ChargerSpec()
    requests = instance.all_sensor_ids()
    positions = instance.positions()
    depot = instance.depot.position
    charge_times = PlanningContext(instance, requests, spec).charge_times_for(
        requests
    )
    tight = MCVEnergyModel(
        battery_j=200_000.0, travel_j_per_m=10.0,
        charge_rate_w=2.0, transfer_efficiency=0.5,
    )
    loose = MCVEnergyModel(
        battery_j=1e9, travel_j_per_m=10.0,
        charge_rate_w=2.0, transfer_efficiency=0.5,
    )
    tours_t, delay_t = solve_k_minmax_energy_constrained(
        requests, positions, depot, 8, spec.travel_speed_mps,
        lambda sid: charge_times[sid], tight,
    )
    tours_l, delay_l = solve_k_minmax_energy_constrained(
        requests, positions, depot, 8, spec.travel_speed_mps,
        lambda sid: charge_times[sid], loose,
    )
    assert tours_l is not None
    if tours_t is not None:
        assert delay_t >= delay_l - 1e-6
