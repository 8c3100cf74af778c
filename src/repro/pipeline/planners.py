"""The registered planners: ``Appro``, the paper's four benchmarks,
and the ``GreedyCover`` and ``Metaheuristic`` extensions.

Every planner function already takes the uniform
:class:`~repro.pipeline.planner.Planner` call — the five that do not
rank by urgency accept ``lifetimes`` and ignore it — so the registry
holds the functions themselves. Registration order matters: it is the
display order of every comparison surface (``planner_names``, the CLI,
the bench harness, ``repro eval``), so the paper's five come first,
extensions after.
"""

from repro.baselines.aa import aa_schedule
from repro.baselines.greedy_cover import greedy_cover_schedule
from repro.baselines.kedf import kedf_schedule
from repro.baselines.kminmax_baseline import kminmax_baseline_schedule
from repro.baselines.netwrap import netwrap_schedule
from repro.core.appro import appro_schedule
from repro.core.metaheuristic import metaheuristic_schedule
from repro.pipeline.planner import PlannerInfo, register_planner

register_planner(PlannerInfo("Appro", appro_schedule, multi_node=True))
register_planner(PlannerInfo("K-EDF", kedf_schedule, multi_node=False))
register_planner(PlannerInfo("NETWRAP", netwrap_schedule, multi_node=False))
register_planner(PlannerInfo("AA", aa_schedule, multi_node=False))
register_planner(
    PlannerInfo("K-minMax", kminmax_baseline_schedule, multi_node=False)
)
register_planner(
    PlannerInfo(
        "GreedyCover", greedy_cover_schedule, multi_node=True, paper=False
    )
)
register_planner(
    PlannerInfo(
        "Metaheuristic", metaheuristic_schedule, multi_node=True, paper=False
    )
)
