"""Rule R11 ``cache-mutation`` — ``PlanningContext`` memos are private.

The planning daemon shares one :class:`repro.core.context.PlanningContext`
per network across jobs inside each pool worker (DESIGN §12–13).
Its memo dictionaries are written only by its own accessor methods,
which makes the sharing story auditable: a memo is filled exactly
once, from inputs alone, so a cache hit and a cache miss produce the
same bytes. Code elsewhere that pokes a memo field directly —
pre-seeding ``_charge_times``, clearing ``_mis`` "to save memory",
fudging ``memo_hits`` in a report — breaks that audit: the same job
then plans differently depending on which worker (with which poked
cache) it lands on, which is exactly the class of bug ``repro
sanitize`` exists to catch at runtime.

The rule flags writes (assignment, augmented assignment, ``del``,
subscript stores, and mutating method calls such as ``.clear()`` /
``.update()`` / ``.pop()``) to any attribute named like a
``PlanningContext`` memo field, in every ``repro`` module but
:mod:`repro.core.context` itself. The field names are underscore-private and
distinctive, so matching by name is precise in practice; a genuine
collision can be suppressed with
``# repro-lint: disable=cache-mutation`` plus a comment saying what
the attribute really is.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import FileRule, register
from repro.lint.visitor import RuleVisitor

#: The memo/counter attributes of ``repro.core.context.PlanningContext``.
MEMO_FIELDS = frozenset(
    {
        "_charge_times",
        "_charging_graph",
        "_disk_index",
        "_coverage",
        "_mis",
        "_stop_groups",
        "_aux",
        "_core",
        "_minmax",
        "memo_hits",
        "memo_misses",
        "invalidations",
    }
)

#: Method calls that mutate a dict/graph memo in place.
MUTATING_METHODS = frozenset(
    {
        "clear",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "add_node",
        "add_edge",
        "add_nodes_from",
        "add_edges_from",
        "remove_node",
        "remove_edge",
    }
)


def _memo_attr(node: ast.expr):
    """The :class:`ast.Attribute` if ``node`` targets a memo field."""
    if isinstance(node, ast.Attribute) and node.attr in MEMO_FIELDS:
        return node
    if isinstance(node, ast.Subscript):
        return _memo_attr(node.value)
    return None


class _Visitor(RuleVisitor):
    def _flag(self, attr: ast.Attribute, how: str) -> None:
        self.report(
            attr,
            f"{how} PlanningContext memo field '.{attr.attr}' outside "
            f"repro.core.context; memos are filled only by the context's "
            f"own accessors so cached and fresh plans stay "
            f"byte-identical across pool workers",
        )

    def _check_targets(self, targets, how: str) -> None:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._check_targets(target.elts, how)
                continue
            attr = _memo_attr(target)
            if attr is not None:
                self._flag(attr, how)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_targets(node.targets, "assignment to")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_targets([node.target], "assignment to")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_targets([node.target], "augmented assignment to")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_targets(node.targets, "deletion of")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
        ):
            attr = _memo_attr(func.value)
            if attr is not None:
                self._flag(attr, f".{func.attr}() call mutating")
        self.generic_visit(node)


@register
class CacheMutationRule(FileRule):
    """R11: only ``repro.core.context`` writes ``PlanningContext`` memos."""

    id = "cache-mutation"
    description = (
        "PlanningContext memo fields are written only inside "
        "repro.core.context (shared-cache integrity)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module_name is None or ctx.in_tests:
            return False
        if not ctx.module_name.startswith("repro"):
            return False
        return ctx.module_name != "repro.core.context"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(_Visitor(self, ctx).run())


__all__ = ["MEMO_FIELDS", "MUTATING_METHODS", "CacheMutationRule"]
