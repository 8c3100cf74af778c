"""Rule R10 ``pool-payload`` — only module-level callables into the pool.

:func:`repro.serve.pool.run_tasks` and the
:class:`repro.serve.pool.SupervisedPool` it runs on pickle the task
function into worker processes. Lambdas, closures and bound methods are either
unpicklable outright (spawn start methods) or — worse, under fork —
*silently* picklable today and broken the day the start method or the
enclosing scope changes. The pool docstrings state the contract
("a picklable module-level callable"); this rule enforces it at every
call site, project-wide:

* a ``lambda`` as the ``fn`` argument is flagged;
* a name defined by a *nested* ``def`` (a closure) is flagged;
* ``self.method`` / ``obj.method`` (a bound method dragging its whole
  instance through the pickle) is flagged — attribute access on an
  imported *module* (``workers.execute_plan_job``) stays fine;
* a bare name is resolved through the project import index
  (:class:`~repro.lint.callgraph.ProjectContext`): a module-level
  ``def`` anywhere in the linted project passes, as do names from
  un-linted (external) modules, which we cannot see into.

The rule keys on the *names* ``run_tasks`` and ``SupervisedPool``
(bare or attribute call, so aliased imports are still covered); both
take ``fn`` as the first positional or as a keyword. A false hit on
an unrelated function of the same name can be pragma'd away.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set

from repro.lint.callgraph import (
    KIND_CLASS,
    ProjectContext,
)
from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import ProjectRule, register
from repro.lint.visitor import RuleVisitor

#: The pool entry point's name; bare calls and ``mod.run_tasks`` both count.
POOL_ENTRY = "run_tasks"

#: The pool engine's constructor; same ``fn``-first contract.
POOL_CLASS = "SupervisedPool"


def _payload_expr(node: ast.Call):
    """The ``fn`` argument of a pool call, or ``None``."""
    if node.args:
        return node.args[0]
    for kw in node.keywords:
        if kw.arg == "fn":
            return kw.value
    return None


class _Visitor(RuleVisitor):
    """Per-file scan, with the shared project index for name lookup."""

    def __init__(self, rule, ctx: FileContext, project: ProjectContext):
        super().__init__(rule, ctx)
        self.project = project
        #: Names bound by ``def`` inside an enclosing function — the
        #: closures. One set per nested function scope.
        self._local_defs: List[Set[str]] = []
        #: Names of imported modules (``import x`` / ``from p import m``
        #: where ``m`` is itself an indexed or unknown *module*).
        index = project.module(ctx.module_name or "")
        self._imports = dict(index.imports) if index is not None else {}

    # -- scope tracking -------------------------------------------------

    def _visit_function(self, node) -> None:
        if self._local_defs:
            self._local_defs[-1].add(node.name)
        self._local_defs.append(set())
        self.generic_visit(node)
        self._local_defs.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- the check ------------------------------------------------------

    def _is_module_attr(self, value: ast.expr) -> bool:
        """``value`` names a module (so ``value.f`` is importable)."""
        if not isinstance(value, ast.Name):
            return False
        origin = self._imports.get(value.id)
        if origin is None:
            return False
        # ``import numpy`` binds a bare module name; ``from repro.serve
        # import workers`` binds ``repro.serve.workers``. Either way the
        # origin must be a module, not a function/class: it is one when
        # the project indexes it as such or cannot see it at all.
        if self.project.module(origin) is not None:
            return True
        if "." not in origin:
            return True
        parent_module, leaf = origin.rsplit(".", 1)
        parent = self.project.module(parent_module)
        if parent is None:
            # Entirely external (e.g. ``os.path``): assume a module.
            return True
        return leaf not in parent.functions and leaf not in parent.classes

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        callee = None
        for pool_name in (POOL_ENTRY, POOL_CLASS):
            if (isinstance(func, ast.Name) and func.id == pool_name) or (
                isinstance(func, ast.Attribute) and func.attr == pool_name
            ):
                callee = pool_name
                break
        if callee is not None:
            payload = _payload_expr(node)
            if payload is not None:
                self._check_payload(payload, callee)
        self.generic_visit(node)

    def _check_payload(self, payload: ast.expr, callee: str) -> None:
        if isinstance(payload, ast.Lambda):
            self.report(
                payload,
                f"lambda passed to {callee} cannot be pickled into "
                f"pool workers; define a module-level function instead",
            )
            return
        if isinstance(payload, ast.Attribute):
            if not self._is_module_attr(payload.value):
                self.report(
                    payload,
                    f"bound method passed to {callee} drags its whole "
                    f"instance through the worker pickle (or fails under "
                    f"spawn); pass a module-level function and put the "
                    f"state in the payload",
                )
            return
        if not isinstance(payload, ast.Name):
            # Calls, subscripts, conditional expressions: too dynamic to
            # prove either way; the runtime sanitizer is the backstop.
            return
        name = payload.id
        if any(name in scope for scope in self._local_defs):
            self.report(
                payload,
                f"'{name}' is a nested def (a closure); {callee} "
                f"workers re-import the task function, so it must live "
                f"at module level",
            )
            return
        resolution = self.project.resolve(self.ctx.module_name or "", name)
        if resolution.kind == KIND_CLASS:
            # A class is importable and picklable by qualified name;
            # instances constructed per payload are fine.
            return
        # KIND_FUNCTION: a module-level def somewhere in the project.
        # KIND_EXTERNAL / KIND_UNKNOWN: cannot disprove, stay silent.


@register
class PoolPayloadRule(ProjectRule):
    """R10: ``run_tasks`` callables must be module-level importable."""

    id = "pool-payload"
    description = (
        "callables submitted to serve.pool.run_tasks or "
        "serve.pool.SupervisedPool must be module-level "
        "(no lambdas/closures/bound methods)"
    )

    def check_project(
        self,
        contexts: Sequence[FileContext],
        project: ProjectContext,
    ) -> Iterator[Finding]:
        for ctx in contexts:
            if ctx.in_tests:
                continue
            yield from _Visitor(self, ctx, project).run()


__all__ = ["POOL_CLASS", "POOL_ENTRY", "PoolPayloadRule"]
