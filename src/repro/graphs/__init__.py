"""Graph machinery of Algorithm 1.

* :mod:`repro.graphs.adjacency` — :class:`NeighborRows`, the immutable
  sorted-neighbour-rows graph that ``G_c`` and ``H`` are built as.
* :mod:`repro.graphs.unit_disk` — the charging graph ``G_c``: an edge
  joins two to-be-charged sensors within the charging radius ``γ``.
* :mod:`repro.graphs.mis` — greedy maximal-independent-set algorithms
  with pluggable tie-breaking (used twice in Algorithm 1, for ``S_I``
  and for ``V'_H``).
* :mod:`repro.graphs.coverage` — charging-disk coverage sets
  ``N_c⁺(v)`` and coverage checks.
* :mod:`repro.graphs.auxiliary` — the conflict graph ``H`` over ``S_I``
  whose edges mark sojourn-location pairs with intersecting disks.
"""

from repro.graphs.adjacency import NeighborRows
from repro.graphs.analysis import (
    disk_occupancy,
    load_factor,
    mean_disk_occupancy,
    structure_report,
)
from repro.graphs.auxiliary import auxiliary_max_degree, build_auxiliary_graph
from repro.graphs.coverage import (
    coverage_sets,
    covered_by,
    covers_all,
    uncovered,
)
from repro.graphs.mis import (
    is_independent_set,
    is_maximal_independent_set,
    maximal_independent_set,
)
from repro.graphs.unit_disk import build_charging_graph

__all__ = [
    "NeighborRows",
    "auxiliary_max_degree",
    "build_auxiliary_graph",
    "build_charging_graph",
    "disk_occupancy",
    "load_factor",
    "mean_disk_occupancy",
    "structure_report",
    "coverage_sets",
    "covered_by",
    "covers_all",
    "is_independent_set",
    "is_maximal_independent_set",
    "maximal_independent_set",
    "uncovered",
]
