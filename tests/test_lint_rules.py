"""Per-rule fixture tests for :mod:`repro.lint`.

Each rule gets at least one positive fixture (a snippet that must be
flagged) and one negative fixture (a snippet that must pass), plus
pragma-suppression coverage. Fixtures are linted from a temp
directory, so the project-level ``api-drift`` rule never fires here.
"""

import textwrap

import pytest

from repro.lint import Severity, lint_paths, rule_ids
from repro.lint.rules.layering import LAYERS


def lint_snippet(tmp_path, source, name="snippet.py", subdir=None,
                 select=None):
    """Write ``source`` under ``tmp_path`` and lint it."""
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


class TestRegistry:
    def test_all_seven_rules_registered(self):
        assert set(rule_ids()) >= {
            "unit-suffix",
            "float-eq",
            "seeded-rng",
            "mutable-default",
            "import-layer",
            "api-drift",
            "euclidean-call",
        }


class TestUnitSuffix:
    def test_flags_unsuffixed_float_parameter(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(travel_distance: float) -> float:
                return travel_distance * 2
            """,
            select=["unit-suffix"],
        )
        assert rules_of(findings) == {"unit-suffix"}
        assert "travel_distance" in findings[0].message

    def test_flags_unsuffixed_attribute(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Result:
                longest_delay: float
            """,
            select=["unit-suffix"],
        )
        assert rules_of(findings) == {"unit-suffix"}

    def test_accepts_suffixed_names(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(travel_distance_m: float, longest_delay_s: float,
                  capacity_j: float, power_draw_w: float) -> float:
                return travel_distance_m
            """,
            select=["unit-suffix"],
        )
        assert findings == []

    def test_accepts_cross_dimension_token(self, tmp_path):
        # A "capacity" measured in watts is legitimate; any unit token
        # satisfies the discipline.
        findings = lint_snippet(
            tmp_path,
            """
            class Load:
                one_to_one_capacity_w: float
            """,
            select=["unit-suffix"],
        )
        assert findings == []

    def test_ignores_non_float_and_non_quantity(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(delays: list, threshold: float, name: str) -> None:
                pass
            """,
            select=["unit-suffix"],
        )
        assert findings == []


class TestFloatEq:
    def test_flags_equality_with_float_literal(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(x):
                return x == 0.0
            """,
            select=["float-eq"],
        )
        assert rules_of(findings) == {"float-eq"}

    def test_flags_inequality_on_unit_suffixed_name(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(level_j, target_j):
                return level_j != target_j
            """,
            select=["float-eq"],
        )
        assert rules_of(findings) == {"float-eq"}

    def test_accepts_integer_equality(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(count, j):
                return count == 0 or j == 3
            """,
            select=["float-eq"],
        )
        assert findings == []

    def test_accepts_ordering_comparisons(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(level_j):
                return level_j <= 0.0
            """,
            select=["float-eq"],
        )
        assert findings == []

    def test_bare_loop_variable_not_a_quantity(self, tmp_path):
        # `j`, `m`, `s` as loop variables must not be mistaken for
        # joule/metre/second-suffixed quantities.
        findings = lint_snippet(
            tmp_path,
            """
            def f(items, j):
                while j != -1:
                    j = items[j]
                return j
            """,
            select=["float-eq"],
        )
        assert findings == []


class TestSeededRng:
    def test_flags_global_random(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random

            def f():
                return random.random()
            """,
            select=["seeded-rng"],
        )
        assert rules_of(findings) == {"seeded-rng"}

    def test_flags_np_random_without_seed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def f():
                return np.random.default_rng()
            """,
            select=["seeded-rng"],
        )
        assert rules_of(findings) == {"seeded-rng"}

    def test_flags_np_global_state(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def f():
                np.random.seed(3)
                return np.random.rand(4)
            """,
            select=["seeded-rng"],
        )
        assert len(findings) == 2

    def test_accepts_seeded_generators(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random
            import numpy as np

            def f(seed):
                a = np.random.default_rng(seed)
                b = random.Random(seed)
                return a, b
            """,
            select=["seeded-rng"],
        )
        assert findings == []

    def test_tests_directory_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random

            def f():
                return random.random()
            """,
            subdir="tests",
            select=["seeded-rng"],
        )
        assert findings == []

    def test_flags_default_rng_none_positional(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def f():
                return np.random.default_rng(None)
            """,
            select=["seeded-rng"],
        )
        assert rules_of(findings) == {"seeded-rng"}
        assert "None" in findings[0].message

    def test_flags_default_rng_none_keyword(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def f():
                return np.random.default_rng(seed=None)
            """,
            select=["seeded-rng"],
        )
        assert rules_of(findings) == {"seeded-rng"}

    def test_flags_public_seed_none_default(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def deploy(count, seed=None):
                return count, seed
            """,
            select=["seeded-rng"],
        )
        assert rules_of(findings) == {"seeded-rng"}
        assert "deploy" in findings[0].message

    def test_flags_kwonly_seed_none_default(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def deploy(count, *, seed=None):
                return count, seed
            """,
            select=["seeded-rng"],
        )
        assert rules_of(findings) == {"seeded-rng"}

    def test_accepts_constant_seed_default(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def deploy(count, seed=0):
                return np.random.default_rng(seed).uniform(size=count)
            """,
            select=["seeded-rng"],
        )
        assert findings == []

    def test_accepts_private_seed_none_default(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def _helper(seed=None):
                return seed
            """,
            select=["seeded-rng"],
        )
        assert findings == []

    def test_accepts_none_default_on_other_params(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def deploy(count, rng=None):
                return count, rng
            """,
            select=["seeded-rng"],
        )
        assert findings == []

    def test_seed_none_in_tests_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def deploy(count, seed=None):
                return count, seed
            """,
            subdir="tests",
            select=["seeded-rng"],
        )
        assert findings == []


class TestMutableDefault:
    def test_flags_list_default(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(acc=[]):
                return acc
            """,
            select=["mutable-default"],
        )
        assert rules_of(findings) == {"mutable-default"}

    def test_flags_dict_factory_and_kwonly(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(*, cache=dict(), tags={"a"}):
                return cache, tags
            """,
            select=["mutable-default"],
        )
        assert len(findings) == 2

    def test_accepts_none_and_immutable_defaults(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(acc=None, pair=(1, 2), name="x"):
                return acc or []
            """,
            select=["mutable-default"],
        )
        assert findings == []

    def test_flags_class_instance_default(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Field:
                pass

            def deploy(n, field=Field()):
                return field
            """,
            select=["mutable-default"],
        )
        assert rules_of(findings) == {"mutable-default"}
        assert "class-instance" in findings[0].message

    def test_flags_attribute_instance_default(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import geometry

            def deploy(n, field=geometry.Field()):
                return field
            """,
            select=["mutable-default"],
        )
        assert rules_of(findings) == {"mutable-default"}

    def test_accepts_lowercase_factory_calls(self, tmp_path):
        # frozenset() and friends are immutable; the CamelCase
        # heuristic must not fire on ordinary function-call defaults.
        findings = lint_snippet(
            tmp_path,
            """
            def make():
                return 3

            def f(x=frozenset(), y=make()):
                return x, y
            """,
            select=["mutable-default"],
        )
        assert findings == []


class TestEuclideanCall:
    def test_flags_direct_call_outside_geometry(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.geometry.distance import euclidean

            def leg(a, b):
                return euclidean(a, b)
            """,
            subdir="repro/tours",
            name="bad.py",
            select=["euclidean-call"],
        )
        assert rules_of(findings) == {"euclidean-call"}
        assert "DistanceCache" in findings[0].message

    def test_flags_attribute_call(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.geometry import distance

            def leg(a, b):
                return distance.euclidean(a, b)
            """,
            subdir="repro/core",
            name="bad.py",
            select=["euclidean-call"],
        )
        assert rules_of(findings) == {"euclidean-call"}

    def test_only_geometry_is_exempt(self, tmp_path):
        source = """
            from repro.geometry.distance import euclidean

            def leg(a, b):
                return euclidean(a, b)
            """
        findings = lint_snippet(
            tmp_path, source, subdir="repro/geometry", name="ok.py",
            select=["euclidean-call"],
        )
        assert findings == []
        findings = lint_snippet(
            tmp_path, source, subdir="repro/pipeline", name="bad.py",
            select=["euclidean-call"],
        )
        assert rules_of(findings) == {"euclidean-call"}

    @pytest.mark.parametrize(
        "call", ["np.hypot(dx, dy)", "math.hypot(dx, dy)", "hypot(dx, dy)"]
    )
    def test_flags_hypot_outside_geometry(self, tmp_path, call):
        findings = lint_snippet(
            tmp_path,
            f"""
            import math
            from math import hypot

            import numpy as np

            def leg(dx, dy):
                return {call}
            """,
            subdir="repro/tours",
            name="bad.py",
            select=["euclidean-call"],
        )
        assert rules_of(findings) == {"euclidean-call"}
        assert "hypot()" in findings[0].message

    def test_hypot_in_geometry_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import math

            def norm(dx, dy):
                return math.hypot(dx, dy)
            """,
            subdir="repro/geometry",
            name="ok.py",
            select=["euclidean-call"],
        )
        assert findings == []

    def test_files_outside_repro_are_skipped(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.geometry.distance import euclidean

            def leg(a, b):
                return euclidean(a, b)
            """,
            name="script.py",
            select=["euclidean-call"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.geometry.distance import euclidean

            def leg(a, b):
                return euclidean(a, b)  # repro-lint: disable=euclidean-call
            """,
            subdir="repro/energy",
            name="ok.py",
            select=["euclidean-call"],
        )
        assert findings == []


class TestImportLayer:
    def test_flags_upward_import(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.sim.simulator import MonitoringSimulation
            """,
            subdir="repro/geometry",
            name="bad.py",
            select=["import-layer"],
        )
        assert rules_of(findings) == {"import-layer"}
        assert findings[0].severity is Severity.ERROR
        assert "layer" in findings[0].message

    def test_flags_same_layer_cross_import(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.graphs.mis import maximal_independent_set
            """,
            subdir="repro/tours",
            name="bad.py",
            select=["import-layer"],
        )
        assert rules_of(findings) == {"import-layer"}

    def test_accepts_downward_and_intra_package(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.core.schedule import ChargingSchedule
            from repro.geometry.point import Point
            from repro.baselines.common import one_stop_tours
            import networkx as nx
            """,
            subdir="repro/baselines",
            name="ok.py",
            select=["import-layer"],
        )
        assert findings == []

    def test_relative_import_resolved(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from ..sim import simulator
            """,
            subdir="repro/energy",
            name="bad.py",
            select=["import-layer"],
        )
        assert rules_of(findings) == {"import-layer"}

    def test_unknown_package_is_reported(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import repro.shiny_new_package
            """,
            subdir="repro/cli",
            name="bad.py",
            select=["import-layer"],
        )
        assert rules_of(findings) == {"import-layer"}
        assert "layer map" in findings[0].message

    def test_files_outside_repro_are_skipped(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.sim.simulator import MonitoringSimulation
            """,
            name="script.py",
            select=["import-layer"],
        )
        assert findings == []

    def test_layer_map_is_a_dag_rank_assignment(self):
        # Sanity: every package named in the map has a distinct spot
        # and the known hot-path packages sit below the drivers.
        assert LAYERS["geometry"] < LAYERS["energy"] < LAYERS["network"]
        assert LAYERS["core"] < LAYERS["baselines"] < LAYERS["pipeline"]
        assert LAYERS["pipeline"] < LAYERS["sim"] < LAYERS["bench"]
        assert LAYERS["bench"] < LAYERS["cli"]


class TestPragmas:
    def test_inline_disable_suppresses_one_rule(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(x):
                return x == 0.0  # repro-lint: disable=float-eq
            """,
            select=["float-eq"],
        )
        assert findings == []

    def test_inline_disable_all(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(acc=[]):  # repro-lint: disable=all
                return acc
            """,
            select=["mutable-default"],
        )
        assert findings == []

    def test_inline_disable_other_rule_does_not_suppress(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(x):
                return x == 0.0  # repro-lint: disable=unit-suffix
            """,
            select=["float-eq"],
        )
        assert rules_of(findings) == {"float-eq"}

    def test_file_level_disable(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            # repro-lint: disable-file=float-eq
            def f(x):
                return x == 0.0

            def g(y):
                return y != 1.5
            """,
            select=["float-eq"],
        )
        assert findings == []


class TestEngine:
    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path):
        findings = lint_snippet(tmp_path, "def broken(:\n")
        assert [f.rule for f in findings] == ["parse-error"]
        assert findings[0].severity is Severity.ERROR

    def test_findings_carry_file_line_spans(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def f(x):
                return x == 0.0
            """,
            select=["float-eq"],
        )
        assert findings[0].line == 3
        assert findings[0].path.endswith("snippet.py")

    def test_select_unknown_rule_raises(self, tmp_path):
        # A typo'd --select must not silently lint with zero rules.
        (tmp_path / "a.py").write_text("x = 1\n")
        with pytest.raises(ValueError, match="unknown rule id"):
            lint_paths([str(tmp_path)], select=["no-such-rule"])

    def test_select_limits_rules(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random

            def f(acc=[]):
                return acc == 0.0 or random.random()
            """,
            select=["mutable-default"],
        )
        assert rules_of(findings) == {"mutable-default"}

    def test_directory_expansion_deduplicates(self, tmp_path):
        (tmp_path / "a.py").write_text("def f(acc=[]):\n    return acc\n")
        findings = lint_paths(
            [str(tmp_path), str(tmp_path / "a.py")],
            select=["mutable-default"],
        )
        assert len(findings) == 1


class TestFormatters:
    def test_text_and_json_outputs(self, tmp_path):
        import json

        from repro.lint import format_findings_json, format_findings_text

        findings = lint_snippet(
            tmp_path,
            """
            def f(x):
                return x == 0.0
            """,
            select=["float-eq"],
        )
        text = format_findings_text(findings)
        assert "[float-eq]" in text
        assert "1 error(s)" in text
        report = json.loads(format_findings_json(findings))
        assert report["format"] == "repro-lint/1"
        assert report["summary"] == {
            "total": 1, "errors": 1, "warnings": 0
        }
        payload = report["findings"]
        assert payload[0]["rule"] == "float-eq"
        assert payload[0]["line"] == 3
        assert payload[0]["severity"] == "error"
