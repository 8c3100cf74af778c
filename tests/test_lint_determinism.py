"""Tests for the determinism-sanitizer lint layer (PR 6).

Covers the intra-function order-sensitivity dataflow
(:mod:`repro.lint.dataflow`), the cross-module resolution index
(:mod:`repro.lint.callgraph`) and the four determinism rules R8–R11,
including their pragma escapes.
"""

import ast
import textwrap

from repro.lint import lint_paths, rule_ids
from repro.lint.callgraph import (
    KIND_CLASS,
    KIND_EXTERNAL,
    KIND_FUNCTION,
    KIND_UNKNOWN,
    ProjectContext,
)
from repro.lint.context import FileContext
from repro.lint.dataflow import order_hazards


def hazards_of(source):
    return order_hazards(ast.parse(textwrap.dedent(source)))


def lint_snippet(tmp_path, source, name="snippet.py", subdir=None,
                 select=None):
    base = tmp_path
    if subdir:
        for part in subdir.split("/"):
            base = base / part
            base.mkdir(exist_ok=True)
    path = base / name
    path.write_text(textwrap.dedent(source))
    return lint_paths([str(path)], select=select)


def rules_of(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Dataflow analysis
# ----------------------------------------------------------------------


class TestDataflowSources:
    def test_set_display_into_append_loop(self):
        hazards = hazards_of(
            """
            def f():
                out = []
                for x in {"a", "b"}:
                    out.append(x)
                return out
            """
        )
        assert len(hazards) == 1
        assert hazards[0].kind == "loop"
        assert "set display" in hazards[0].detail

    def test_set_constructor_and_name_propagation(self):
        hazards = hazards_of(
            """
            def f(items):
                chosen = set(items)
                return [x for x in chosen]
            """
        )
        assert len(hazards) == 1
        assert "'chosen'" in hazards[0].detail

    def test_set_comprehension_source(self):
        hazards = hazards_of(
            """
            def f(items):
                s = {x * 2 for x in items}
                return list(s)
            """
        )
        assert len(hazards) == 1
        assert hazards[0].kind == "call"

    def test_set_algebra_binop_propagates(self):
        hazards = hazards_of(
            """
            def f(a, b):
                both = set(a) | set(b)
                return tuple(both)
            """
        )
        assert len(hazards) == 1

    def test_set_algebra_method_propagates(self):
        hazards = hazards_of(
            """
            def f(a, b):
                u = set(a).union(b)
                return sum(u)
            """
        )
        assert len(hazards) == 1
        assert "sum()" in hazards[0].detail

    def test_augmented_set_union_propagates(self):
        hazards = hazards_of(
            """
            def f(groups):
                seen = set()
                for g in groups:
                    seen |= g
                return list(seen)
            """
        )
        assert [h.kind for h in hazards] == ["call"]

    def test_plain_list_is_not_flagged(self):
        assert not hazards_of(
            """
            def f(items):
                chosen = list(items)
                return [x for x in chosen]
            """
        )

    def test_unknown_names_assumed_ordered(self):
        assert not hazards_of(
            """
            def f(maybe_a_set):
                return [x for x in maybe_a_set]
            """
        )


class TestDataflowSinks:
    def test_next_iter_first_element(self):
        hazards = hazards_of(
            """
            def f(pending):
                p = set(pending)
                return next(iter(p))
            """
        )
        assert len(hazards) == 1
        assert "next(iter(...))" in hazards[0].detail

    def test_yield_in_loop_body(self):
        hazards = hazards_of(
            """
            def f(s):
                items = frozenset(s)
                for x in items:
                    yield x
            """
        )
        assert len(hazards) == 1
        assert "yields" in hazards[0].detail

    def test_subscript_assignment_in_loop_body(self):
        hazards = hazards_of(
            """
            def f(s, out):
                marked = set(s)
                for x in marked:
                    out[x] = True
            """
        )
        assert len(hazards) == 1
        assert "subscript" in hazards[0].detail

    def test_float_accumulation_in_loop_body(self):
        hazards = hazards_of(
            """
            def f(weights):
                total = 0.0
                for w in set(weights):
                    total += w
                return total
            """
        )
        assert len(hazards) == 1

    def test_join_consumer(self):
        hazards = hazards_of(
            """
            def f(names):
                s = set(names)
                return ",".join(s)
            """
        )
        assert len(hazards) == 1

    def test_dict_comprehension_sink(self):
        hazards = hazards_of(
            """
            def f(ids, positions):
                wanted = set(ids)
                return {i: positions[i] for i in wanted}
            """
        )
        assert len(hazards) == 1
        assert hazards[0].kind == "comprehension"


class TestDataflowSafeConsumers:
    def test_counting_loop_is_exempt(self):
        assert not hazards_of(
            """
            def f(s):
                n = 0
                for _x in set(s):
                    n += 1
                return n
            """
        )

    def test_sorted_blesses_its_argument(self):
        assert not hazards_of(
            """
            def f(s):
                items = set(s)
                return sorted(items)
            """
        )

    def test_sorted_blesses_generator_argument(self):
        assert not hazards_of(
            """
            def f(s):
                items = set(s)
                return sorted(x * 2 for x in items)
            """
        )

    def test_len_min_max_any_all_are_safe(self):
        assert not hazards_of(
            """
            def f(s):
                items = set(s)
                return len(items), min(items), max(items), any(items)
            """
        )

    def test_rebuilding_a_set_is_safe(self):
        assert not hazards_of(
            """
            def f(a, b):
                return set(set(a) | set(b))
            """
        )

    def test_iterating_sorted_set_is_safe(self):
        assert not hazards_of(
            """
            def f(s, out):
                for x in sorted(set(s)):
                    out.append(x)
            """
        )

    def test_membership_test_is_safe(self):
        assert not hazards_of(
            """
            def f(s, x):
                allowed = set(s)
                return x in allowed
            """
        )

    def test_nested_def_in_loop_body_not_a_sink(self):
        assert not hazards_of(
            """
            def f(s):
                for x in set(s):
                    def g():
                        acc.append(x)
                return None
            """
        )


class TestDataflowScopes:
    def test_module_level_scope_analyzed(self):
        hazards = hazards_of(
            """
            NAMES = set(["a", "b"])
            ROSTER = list(NAMES)
            """
        )
        assert len(hazards) == 1

    def test_function_scope_sees_enclosing_bindings(self):
        hazards = hazards_of(
            """
            UNIVERSE = frozenset([1, 2, 3])

            def f():
                return list(UNIVERSE)
            """
        )
        assert len(hazards) == 1

    def test_inner_rebinding_shadows_outer(self):
        assert not hazards_of(
            """
            UNIVERSE = frozenset([1, 2, 3])

            def f():
                UNIVERSE = sorted([1, 2, 3])
                return list(UNIVERSE)
            """
        )

    def test_method_bodies_analyzed(self):
        hazards = hazards_of(
            """
            class C:
                def m(self, s):
                    items = set(s)
                    return list(items)
            """
        )
        assert len(hazards) == 1


# ----------------------------------------------------------------------
# Call-graph / project resolution
# ----------------------------------------------------------------------


def project_of(tmp_path, files):
    """Build a ProjectContext from ``{relpath: source}``."""
    contexts = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        contexts.append(
            FileContext.from_source(path, path.read_text(), rel)
        )
    return ProjectContext.from_contexts(contexts)


class TestProjectContext:
    def test_resolves_local_function_and_class(self, tmp_path):
        project = project_of(
            tmp_path,
            {
                "repro/mod.py": """
                def worker(payload):
                    return payload

                class Thing:
                    pass
                """,
            },
        )
        fn = project.resolve("repro.mod", "worker")
        assert fn.kind == KIND_FUNCTION
        assert fn.qualified == "repro.mod.worker"
        cls = project.resolve("repro.mod", "Thing")
        assert cls.kind == KIND_CLASS

    def test_follows_import_chain(self, tmp_path):
        project = project_of(
            tmp_path,
            {
                "repro/a.py": """
                def work(x):
                    return x
                """,
                "repro/b.py": """
                from repro.a import work as do_work
                """,
                "repro/c.py": """
                from repro.b import do_work
                """,
            },
        )
        res = project.resolve("repro.c", "do_work")
        assert res.kind == KIND_FUNCTION
        assert res.qualified == "repro.a.work"

    def test_relative_import_resolution(self, tmp_path):
        project = project_of(
            tmp_path,
            {
                "repro/pkg/a.py": """
                def helper(x):
                    return x
                """,
                "repro/pkg/b.py": """
                from .a import helper
                """,
            },
        )
        res = project.resolve("repro.pkg.b", "helper")
        assert res.kind == KIND_FUNCTION
        assert res.qualified == "repro.pkg.a.helper"

    def test_external_and_unknown(self, tmp_path):
        project = project_of(
            tmp_path,
            {
                "repro/mod.py": """
                import numpy as np
                from os.path import join
                """,
            },
        )
        assert project.resolve("repro.mod", "np").kind == KIND_EXTERNAL
        assert project.resolve("repro.mod", "join").kind == KIND_EXTERNAL
        assert (
            project.resolve("repro.mod", "nowhere").kind == KIND_UNKNOWN
        )

    def test_import_cycle_terminates(self, tmp_path):
        project = project_of(
            tmp_path,
            {
                "repro/a.py": """
                from repro.b import name
                """,
                "repro/b.py": """
                from repro.a import name
                """,
            },
        )
        res = project.resolve("repro.a", "name")
        assert res.kind == KIND_UNKNOWN

    def test_call_graph_and_callers_of(self, tmp_path):
        project = project_of(
            tmp_path,
            {
                "repro/a.py": """
                def leaf(x):
                    return x
                """,
                "repro/b.py": """
                from repro.a import leaf

                def caller(x):
                    return leaf(x)
                """,
            },
        )
        graph = project.call_graph()
        assert "repro.a.leaf" in graph["repro.b.caller"]
        assert project.callers_of("repro.a.leaf") == ["repro.b.caller"]


# ----------------------------------------------------------------------
# R8 unordered-iteration
# ----------------------------------------------------------------------


class TestUnorderedIterationRule:
    def test_registered(self):
        assert "unordered-iteration" in rule_ids()

    def test_flags_set_iteration_into_list(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(items):
                chosen = set(items)
                out = []
                for x in chosen:
                    out.append(x)
                return out
            """,
            select=["unordered-iteration"],
        )
        assert rules_of(findings) == {"unordered-iteration"}
        assert "sorted" in findings[0].message

    def test_tests_are_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(items):
                return list(set(items))
            """,
            subdir="tests",
            select=["unordered-iteration"],
        )
        assert findings == []

    def test_pragma_on_loop_header_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(s, out):
                # counters per id: order never observed
                for x in set(s):  # repro-lint: disable=unordered-iteration
                    out[x] = 0
            """,
            select=["unordered-iteration"],
        )
        assert findings == []

    def test_pragma_deep_in_loop_body_does_not_suppress(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(s, out):
                for x in set(s):
                    # repro-lint: disable=unordered-iteration
                    out[x] = 0
            """,
            select=["unordered-iteration"],
        )
        assert rules_of(findings) == {"unordered-iteration"}

    def test_pragma_on_multiline_call_closing_line(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(names):
                s = set(names)
                return ",".join(
                    s
                )  # repro-lint: disable=unordered-iteration
            """,
            select=["unordered-iteration"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R9 wall-clock
# ----------------------------------------------------------------------


class TestWallClockRule:
    def test_registered(self):
        assert "wall-clock" in rule_ids()

    def test_flags_time_time_in_core(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def f():
                return time.time()
            """,
            subdir="repro/core",
            select=["wall-clock"],
        )
        assert rules_of(findings) == {"wall-clock"}

    def test_flags_perf_counter_in_pipeline(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def f():
                return time.perf_counter()
            """,
            subdir="repro/pipeline",
            select=["wall-clock"],
        )
        assert rules_of(findings) == {"wall-clock"}

    def test_flags_from_time_import(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from time import monotonic

            def f():
                return monotonic()
            """,
            subdir="repro/graphs",
            select=["wall-clock"],
        )
        assert rules_of(findings) == {"wall-clock"}

    def test_flags_datetime_now(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from datetime import datetime

            def f():
                return datetime.now()
            """,
            subdir="repro/energy",
            select=["wall-clock"],
        )
        assert rules_of(findings) == {"wall-clock"}

    def test_flags_os_environ_and_getenv(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import os

            def f():
                return os.environ.get("X"), os.getenv("Y")
            """,
            subdir="repro/baselines",
            select=["wall-clock"],
        )
        assert len(findings) == 2

    def test_serve_layer_may_read_clock(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def f():
                return time.perf_counter()
            """,
            subdir="repro/serve",
            select=["wall-clock"],
        )
        assert findings == []

    def test_bench_layer_may_read_env(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import os

            def f():
                return os.environ.get("REPRO_BENCH_QUICK")
            """,
            subdir="repro/bench",
            select=["wall-clock"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def f():
                return time.time()  # repro-lint: disable=wall-clock
            """,
            subdir="repro/core",
            select=["wall-clock"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R10 pool-payload
# ----------------------------------------------------------------------


class TestPoolPayloadRule:
    def test_registered(self):
        assert "pool-payload" in rule_ids()

    def test_flags_lambda(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.serve.pool import run_tasks

            def f(payloads):
                return run_tasks(lambda p: p, payloads)
            """,
            subdir="repro/cli",
            select=["pool-payload"],
        )
        assert rules_of(findings) == {"pool-payload"}
        assert "lambda" in findings[0].message

    def test_flags_nested_def(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.serve.pool import run_tasks

            def f(payloads):
                def worker(p):
                    return p
                return run_tasks(worker, payloads)
            """,
            subdir="repro/cli",
            select=["pool-payload"],
        )
        assert rules_of(findings) == {"pool-payload"}
        assert "closure" in findings[0].message

    def test_flags_bound_method(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.serve import pool

            class Service:
                def run(self, payloads):
                    return pool.run_tasks(self.step, payloads)
            """,
            subdir="repro/cli",
            select=["pool-payload"],
        )
        assert rules_of(findings) == {"pool-payload"}
        assert "bound method" in findings[0].message

    def test_flags_fn_keyword_argument(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.serve.pool import run_tasks

            def f(payloads):
                return run_tasks(fn=lambda p: p, payloads=payloads)
            """,
            subdir="repro/cli",
            select=["pool-payload"],
        )
        assert rules_of(findings) == {"pool-payload"}

    def test_module_level_function_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.serve.pool import run_tasks

            def worker(p):
                return p

            def f(payloads):
                return run_tasks(worker, payloads)
            """,
            subdir="repro/cli",
            select=["pool-payload"],
        )
        assert findings == []

    def test_flags_lambda_into_supervised_pool(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.serve.pool import SupervisedPool

            def f():
                return SupervisedPool(lambda p: p, workers=2)
            """,
            subdir="repro/cli",
            select=["pool-payload"],
        )
        assert rules_of(findings) == {"pool-payload"}
        assert "SupervisedPool" in findings[0].message

    def test_flags_bound_method_fn_kwarg_supervised_pool(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.serve import pool

            class Daemon:
                def build(self):
                    return pool.SupervisedPool(fn=self.execute)
            """,
            subdir="repro/cli",
            select=["pool-payload"],
        )
        assert rules_of(findings) == {"pool-payload"}
        assert "bound method" in findings[0].message

    def test_module_level_function_into_supervised_pool_passes(
        self, tmp_path
    ):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.serve.pool import SupervisedPool

            def execute(p):
                return p

            def f():
                return SupervisedPool(execute, workers=2)
            """,
            subdir="repro/cli",
            select=["pool-payload"],
        )
        assert findings == []

    def test_module_attribute_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import json
            from repro.serve.pool import run_tasks

            def f(payloads):
                return run_tasks(json.dumps, payloads)
            """,
            subdir="repro/cli",
            select=["pool-payload"],
        )
        assert findings == []

    def test_cross_module_import_resolves(self, tmp_path):
        # worker defined in one module, submitted from another: the
        # project index proves it is module-level.
        base = tmp_path / "repro"
        base.mkdir()
        (base / "workers.py").write_text(
            textwrap.dedent(
                """
                def execute(p):
                    return p
                """
            )
        )
        (base / "svc.py").write_text(
            textwrap.dedent(
                """
                from repro.workers import execute
                from repro.serve.pool import run_tasks

                def f(payloads):
                    return run_tasks(execute, payloads)
                """
            )
        )
        findings = lint_paths([str(base)], select=["pool-payload"])
        assert findings == []

    def test_tests_are_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.serve.pool import run_tasks

            def f(payloads):
                return run_tasks(lambda p: p, payloads)
            """,
            subdir="tests",
            select=["pool-payload"],
        )
        assert findings == []

    def test_pragma_suppresses_project_rule_finding(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.serve.pool import run_tasks

            def f(payloads):
                # serial-mode only helper, never pickled
                return run_tasks(
                    lambda p: p,  # repro-lint: disable=pool-payload
                    payloads,
                )
            """,
            subdir="repro/cli",
            select=["pool-payload"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R11 cache-mutation
# ----------------------------------------------------------------------


class TestCacheMutationRule:
    def test_registered(self):
        assert "cache-mutation" in rule_ids()

    def test_flags_assignment_outside_pipeline(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(context):
                context._charging_graph = None
            """,
            subdir="repro/serve",
            select=["cache-mutation"],
        )
        assert rules_of(findings) == {"cache-mutation"}
        assert "_charging_graph" in findings[0].message

    def test_flags_subscript_store(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(context, sid, value):
                context._charge_times[sid] = value
            """,
            subdir="repro/baselines",
            select=["cache-mutation"],
        )
        assert rules_of(findings) == {"cache-mutation"}

    def test_flags_clear_call(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(context):
                context._mis.clear()
            """,
            subdir="repro/serve",
            select=["cache-mutation"],
        )
        assert rules_of(findings) == {"cache-mutation"}

    def test_flags_counter_fudging(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(context):
                context.memo_hits += 1
            """,
            subdir="repro/bench",
            select=["cache-mutation"],
        )
        assert rules_of(findings) == {"cache-mutation"}

    def test_core_context_module_is_exempt(self, tmp_path):
        source = """
            def f(self, sid, value):
                self._charge_times[sid] = value
            """

        def lint_as(subdir, name):
            return lint_snippet(
                tmp_path, source, name=name, subdir=subdir,
                select=["cache-mutation"],
            )

        assert lint_as("repro/core", "context.py") == []
        # Only that module: its neighbours and the pipeline are not.
        assert rules_of(lint_as("repro/core", "appro.py")) == {
            "cache-mutation"
        }
        assert rules_of(lint_as("repro/pipeline", "context.py")) == {
            "cache-mutation"
        }

    def test_reads_are_fine(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(context):
                return len(context._charge_times), context.memo_hits
            """,
            subdir="repro/serve",
            select=["cache-mutation"],
        )
        assert findings == []

    def test_unrelated_attributes_are_fine(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(obj):
                obj._cache = {}
                obj._cache.clear()
            """,
            subdir="repro/serve",
            select=["cache-mutation"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(context):
                # test fixture reset helper
                context._mis.clear()  # repro-lint: disable=cache-mutation
            """,
            subdir="repro/serve",
            select=["cache-mutation"],
        )
        assert findings == []


class TestNewRulesListed:
    def test_all_eleven_rules_registered(self):
        assert set(rule_ids()) >= {
            "unit-suffix",
            "float-eq",
            "seeded-rng",
            "mutable-default",
            "import-layer",
            "api-drift",
            "euclidean-call",
            "unordered-iteration",
            "wall-clock",
            "pool-payload",
            "cache-mutation",
        }
