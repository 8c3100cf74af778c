"""Project-level resolution context shared by the project rules.

Per-file AST rules cannot answer cross-module questions — "is the
callable handed to ``run_tasks`` a module-level function *somewhere*?"
(R10) or "which package owns ``PlanningContext``'s memo fields?"
(R11). This module builds a light project index once per lint run:

* per linted module, its top-level function and class definitions and
  an import table mapping every locally bound name to the absolute
  dotted name it came from;
* :meth:`ProjectContext.resolve` follows those import edges (bounded,
  cycle-safe) until it lands on a definition, an external module, or
  gives up;
* :meth:`ProjectContext.call_graph` derives a best-effort static call
  graph over the module-level functions — each function's qualified
  name mapped to the qualified names it calls — which rules use to
  reason one hop beyond the file they are looking at.

The index is intentionally syntactic: no imports are executed, so the
linter stays safe on broken or cyclic code (files that fail to parse
simply do not appear).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.context import FileContext

#: What a name resolved to, project-wide.
KIND_FUNCTION = "function"
KIND_CLASS = "class"
KIND_EXTERNAL = "external"
KIND_UNKNOWN = "unknown"


@dataclass
class ModuleIndex:
    """Everything the project rules need to know about one module."""

    context: FileContext
    #: Module-level function definitions by name.
    functions: Dict[str, ast.AST] = field(default_factory=dict)
    #: Module-level class definitions by name.
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    #: Locally bound name -> absolute dotted origin
    #: (``execute_plan_job`` -> ``repro.serve.workers.execute_plan_job``).
    imports: Dict[str, str] = field(default_factory=dict)


def _resolve_relative(
    module_name: str, level: int, module: Optional[str]
) -> Optional[str]:
    """Absolute dotted base of a relative import (``from .. import x``)."""
    parts = module_name.split(".")
    if level >= len(parts):
        return None
    prefix = ".".join(parts[:-level])
    if module:
        return f"{prefix}.{module}" if prefix else module
    return prefix or None


def _index_module(ctx: FileContext) -> ModuleIndex:
    index = ModuleIndex(context=ctx)
    module_name = ctx.module_name or ""
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index.functions[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            index.classes[stmt.name] = stmt
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                index.imports[bound] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level:
                base = _resolve_relative(
                    module_name, stmt.level, stmt.module
                )
            else:
                base = stmt.module
            if base is None:
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name
                index.imports[bound] = f"{base}.{alias.name}"
    return index


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolving a name project-wide.

    Attributes:
        kind: one of :data:`KIND_FUNCTION`, :data:`KIND_CLASS`,
            :data:`KIND_EXTERNAL`, :data:`KIND_UNKNOWN`.
        qualified: absolute dotted name of the resolved target (best
            known, even when the target itself is external).
        module: the indexed module holding the definition, when found.
    """

    kind: str
    qualified: str
    module: Optional[str] = None


class ProjectContext:
    """Cross-module resolution index over one lint run's files."""

    def __init__(self, modules: Dict[str, ModuleIndex]):
        self.modules = modules

    @classmethod
    def from_contexts(
        cls, contexts: Sequence[FileContext]
    ) -> "ProjectContext":
        modules: Dict[str, ModuleIndex] = {}
        for ctx in contexts:
            if ctx.module_name is not None:
                modules[ctx.module_name] = _index_module(ctx)
        return cls(modules)

    # ------------------------------------------------------------------

    def module(self, name: str) -> Optional[ModuleIndex]:
        """The indexed module, trying both plain and package forms."""
        found = self.modules.get(name)
        if found is None:
            found = self.modules.get(f"{name}.__init__")
        return found

    def resolve(self, module_name: str, name: str) -> Resolution:
        """Resolve ``name`` as seen from ``module_name``, project-wide.

        Follows import edges through the indexed modules (cycle-safe)
        until the name lands on a module-level function or class, an
        un-indexed (external) module, or runs out of information.
        """
        seen: Set[Tuple[str, str]] = set()
        current_module, current_name = module_name, name
        qualified = f"{module_name}.{name}"
        while (current_module, current_name) not in seen:
            seen.add((current_module, current_name))
            index = self.module(current_module)
            if index is None:
                return Resolution(kind=KIND_EXTERNAL, qualified=qualified)
            if current_name in index.functions:
                return Resolution(
                    kind=KIND_FUNCTION,
                    qualified=f"{current_module}.{current_name}",
                    module=current_module,
                )
            if current_name in index.classes:
                return Resolution(
                    kind=KIND_CLASS,
                    qualified=f"{current_module}.{current_name}",
                    module=current_module,
                )
            origin = index.imports.get(current_name)
            if origin is None:
                return Resolution(kind=KIND_UNKNOWN, qualified=qualified)
            qualified = origin
            if "." not in origin:
                # ``import numpy`` style: a bare module binding.
                return Resolution(kind=KIND_EXTERNAL, qualified=origin)
            current_module, current_name = origin.rsplit(".", 1)
        return Resolution(kind=KIND_UNKNOWN, qualified=qualified)

    # ------------------------------------------------------------------

    def call_graph(self) -> Dict[str, FrozenSet[str]]:
        """Static call graph over the module-level functions.

        Each key is a qualified function name
        (``repro.serve.workers.execute_plan_job``); each value the set of qualified
        names its body calls, resolved through the import tables where
        possible. Unresolvable targets keep their local spelling
        prefixed with the calling module, so the graph stays total.
        """
        graph: Dict[str, FrozenSet[str]] = {}
        for module_name, index in self.modules.items():
            for func_name, func_node in index.functions.items():
                called: Set[str] = set()
                for node in ast.walk(func_node):
                    if not isinstance(node, ast.Call):
                        continue
                    target = _call_target_name(node)
                    if not target:
                        continue
                    resolution = self.resolve(module_name, target)
                    called.add(resolution.qualified)
                graph[f"{module_name}.{func_name}"] = frozenset(called)
        return graph

    def callers_of(self, qualified: str) -> List[str]:
        """Qualified names of functions whose bodies call ``qualified``."""
        return sorted(
            caller
            for caller, callees in self.call_graph().items()
            if qualified in callees
        )


def _call_target_name(node: ast.Call) -> str:
    """Local spelling of a call target (``f`` or the root of ``m.f``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id
    return ""


__all__ = [
    "KIND_CLASS",
    "KIND_EXTERNAL",
    "KIND_FUNCTION",
    "KIND_UNKNOWN",
    "ModuleIndex",
    "ProjectContext",
    "Resolution",
]
