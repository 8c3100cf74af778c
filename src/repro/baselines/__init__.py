"""The four baselines of the paper's evaluation (Section VI-A).

All four are *one-to-one* chargers — each MCV charges a single sensor
at a time at its location — which is exactly why ``Appro`` beats them:
their tour length and total charging time scale with the number of
sensors, while ``Appro``'s scale with the number of sojourn disks.

* :mod:`repro.baselines.kedf` — Earliest Deadline First with K MCVs:
  urgency-sorted groups of K, assigned to vehicles by a min-cost
  matching on travel distance.
* :mod:`repro.baselines.netwrap` — each MCV greedily picks the next
  sensor minimising a weighted sum of travel time and residual
  lifetime (Wang et al.).
* :mod:`repro.baselines.aa` — K-means partition into K groups, one MCV
  per group (Wang et al.).
* :mod:`repro.baselines.kminmax_baseline` — K node-disjoint min-max
  closed tours over all requested sensors (Liang et al.,
  5-approximation), still charging one sensor per stop.

Each returns a :class:`~repro.core.schedule.ChargingSchedule` built by
:func:`repro.baselines.common.one_to_one_schedule`, in which every stop
covers only its own sensor.
"""

from repro.baselines.aa import aa_schedule
from repro.baselines.greedy_cover import greedy_cover_schedule
from repro.baselines.kedf import kedf_schedule
from repro.baselines.kminmax_baseline import kminmax_baseline_schedule
from repro.baselines.netwrap import netwrap_schedule

__all__ = [
    "aa_schedule",
    "greedy_cover_schedule",
    "kedf_schedule",
    "kminmax_baseline_schedule",
    "netwrap_schedule",
]
