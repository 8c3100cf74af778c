"""Re-export of :mod:`repro.core.context`, where the context lives."""

from repro.core.context import PlanningContext, shared_distance_cache

__all__ = ["PlanningContext", "shared_distance_cache"]
