"""Closed-tour construction for mobile chargers.

* :mod:`repro.tours.tsp` — TSP tour constructions (nearest-neighbour,
  greedy-edge, double-MST, Christofides) behind ``build_tsp_order``.
* :mod:`repro.tours.christofides` — Christofides' construction over a
  dense matrix, with its blossom matching.
* :mod:`repro.tours.improve` — 2-opt / Or-opt local search.
* :mod:`repro.tours.splitting` — rooted min-max splitting of one tour
  into ``K`` segments with node service weights (Frederickson-style).
* :mod:`repro.tours.kminmax` — the ``K``-optimal closed tour solver
  (Definition 2) used as Algorithm 1's subroutine; our implementation
  of the Liang et al. constant-factor approximation.
* :mod:`repro.tours.arrays` — the tour engine (DESIGN §16):
  index-space tours over dense distance matrices and the vectorised
  construction / 2-opt / Or-opt / splitting kernels every function
  above runs on.
"""

from repro.tours.arrays import ArrayDistance, NodeIndexCodec
from repro.tours.energy_budget import (
    MCVEnergyModel,
    minimum_chargers_energy_constrained,
    solve_k_minmax_energy_constrained,
    split_tour_energy_constrained,
    tour_energy,
)
from repro.tours.exact import exact_k_minmax, held_karp_tsp
from repro.tours.improve import or_opt, two_opt
from repro.tours.kminmax import solve_k_minmax_tours
from repro.tours.minchargers import (
    MinChargersResult,
    minimum_chargers_for_bound,
)
from repro.tours.splitting import greedy_split_with_bound, split_tour_min_max
from repro.tours.tsp import build_tsp_order

__all__ = [
    "ArrayDistance",
    "MCVEnergyModel",
    "MinChargersResult",
    "NodeIndexCodec",
    "build_tsp_order",
    "exact_k_minmax",
    "greedy_split_with_bound",
    "held_karp_tsp",
    "minimum_chargers_energy_constrained",
    "minimum_chargers_for_bound",
    "or_opt",
    "solve_k_minmax_energy_constrained",
    "solve_k_minmax_tours",
    "split_tour_energy_constrained",
    "split_tour_min_max",
    "tour_energy",
    "two_opt",
]
