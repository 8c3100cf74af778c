"""Rule R7 ``euclidean-call`` — distances go through the shared cache.

Every planner-facing distance in the pipeline must come from a
:class:`~repro.geometry.distcache.DistanceCache` (usually the
:class:`~repro.core.context.PlanningContext`'s), so warm runs pay
one ``math.hypot`` per point pair instead of one per lookup — and so
all layers agree bit-exactly on every leg length. A scattered
``euclidean()`` call re-opens the door to the ad-hoc per-module
distance closures the pipeline refactor removed.

The rule flags calls to ``euclidean`` and to ``hypot`` (``math.hypot``,
``np.hypot`` or a bare ``hypot``, by name or attribute) in any
``repro`` module outside :mod:`repro.geometry`, where the primitive,
its cache and the one "within ``r``" query live. A ``hypot`` elsewhere
is a second distance rule: ``np.hypot`` rounds differently from
``math.hypot`` on ~0.6% of pairs, and a disk test built on it can
disagree with :meth:`Point.distance_to` at ``d ≈ r``. Point-based
public APIs that legitimately measure one segment (e.g.
``ChargerSpec.travel_time``) suppress with
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
_ALLOWED_PACKAGES = frozenset({"geometry"})


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
        if name in ("euclidean", "hypot"):
            self.report(
                node,
                f"direct {name}() call outside repro.geometry; route "
                "distances through a DistanceCache (e.g. "
                "PlanningContext.distance) so lookups are shared and "
                "memoized, and radius queries through DiskIndex",
            )
        self.generic_visit(node)


@register
class EuclideanCallRule(FileRule):
    """R7: no raw ``euclidean()``/``hypot()`` outside the geometry layer."""

    id = "euclidean-call"
    description = (
        "distances outside repro.geometry go through a DistanceCache, "
        "not raw euclidean() or hypot() calls"
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
