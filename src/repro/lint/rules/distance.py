"""Rule R7 ``euclidean-call`` — distances go through the shared cache.

Every planner-facing distance in the pipeline must come from a
:class:`~repro.geometry.distcache.DistanceCache` (usually the
:class:`~repro.core.context.PlanningContext`'s), so warm runs pay
one ``math.hypot`` per point pair instead of one per lookup — and so
all layers agree bit-exactly on every leg length. A scattered
``euclidean()`` call re-opens the door to the ad-hoc per-module
distance closures the pipeline refactor removed.

The rule flags calls to ``euclidean`` (bare name or attribute) in any
``repro`` module outside :mod:`repro.geometry` — where the primitive
and its cache live — and :mod:`repro.pipeline`, which owns the cache
instances. Point-based public APIs that legitimately measure one
segment (e.g. ``ChargerSpec.travel_time``) suppress with
``# repro-lint: disable=euclidean-call``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import FileRule, register
from repro.lint.visitor import RuleVisitor

#: Packages allowed to call the primitive directly.
_ALLOWED_PACKAGES = frozenset({"geometry", "pipeline"})


def _package_key(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else ""


class _Visitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name == "euclidean":
            self.report(
                node,
                "direct euclidean() call outside repro.geometry/"
                "repro.pipeline; route distances through a "
                "DistanceCache (e.g. PlanningContext.distance) so "
                "lookups are shared and memoized",
            )
        self.generic_visit(node)


@register
class EuclideanCallRule(FileRule):
    """R7: no raw ``euclidean()`` outside the geometry/pipeline layers."""

    id = "euclidean-call"
    description = (
        "distances outside repro.geometry/repro.pipeline go through "
        "a DistanceCache, not raw euclidean() calls"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module_name is None:
            return False
        if not ctx.module_name.startswith("repro"):
            return False
        return _package_key(ctx.module_name) not in _ALLOWED_PACKAGES

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(_Visitor(self, ctx).run())


__all__ = ["EuclideanCallRule"]
