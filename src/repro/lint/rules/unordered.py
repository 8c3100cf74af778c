"""Rule R8 ``unordered-iteration`` — no set-order data in results.

The serving contract is byte-identical results at any worker
count and any ``PYTHONHASHSEED`` (DESIGN §13); PR 6's runtime
sanitizer (``repro sanitize``) enforces it dynamically. This rule is
the static half: it runs the intra-function dataflow analysis of
:mod:`repro.lint.dataflow` over every production file and flags each
place an evidently unordered collection (``set``/``frozenset``
display, constructor, comprehension or algebra) is iterated into an
order-sensitive sink — list building, ``+=`` float accumulation,
stream/JSONL emission, ``sum``/``list``/``tuple``/``join``
materialization, ``next(iter(...))`` first-element picks — without an
intervening ``sorted()``.

Counting loops (``n += 1``), membership tests and order-insensitive
consumers (``sorted``, ``min``, ``max``, ``len``, ``any``, ``all``,
rebuilding a ``set``) never trigger. Where set order is provably
harmless (e.g. the elements feed a commutative integer reduction),
suppress with ``# repro-lint: disable=unordered-iteration`` and say
why in the surrounding code.

Tests are exempt: fixtures iterate sets freely, and the parity suite
itself is the runtime check.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.dataflow import order_hazards
from repro.lint.registry import FileRule, register


@register
class UnorderedIterationRule(FileRule):
    """R8: unordered collections must be sorted before ordered sinks."""

    id = "unordered-iteration"
    description = (
        "no set/frozenset iteration into order-sensitive sinks "
        "without sorted() (deterministic results)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.in_tests

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for hazard in order_hazards(ctx.tree):
            node = hazard.node
            line = getattr(node, "lineno", 0)
            # For loop hazards the pragma span is the header (up to the
            # end of the iterable expression), not the whole body.
            span_node = node.iter if isinstance(node, ast.For) else node
            end_line = getattr(span_node, "end_lineno", None) or line
            if ctx.pragmas.suppressed_span(self.id, line, end_line):
                continue
            yield self.finding(
                ctx,
                line,
                getattr(hazard.node, "col_offset", 0),
                f"{hazard.detail}; iterate sorted(...) instead so the "
                f"result does not depend on hash order",
            )


__all__ = ["UnorderedIterationRule"]
