"""No networkx in the planning layers.

``G_c``, ``H``, the MIS and the extension run on
:class:`repro.graphs.adjacency.NeighborRows`, and the tour engines on
the dense distance matrix, so planner bytes do not depend on the
networkx version. networkx stays in ``repro.network`` (the
communication graph and its Dijkstra routing tree).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PLANNING_PACKAGES = ("graphs", "core", "tours")


def networkx_imports(path: Path):
    """``(line, statement)`` of every networkx import in ``path``,
    function-level ones included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "networkx" for name in names):
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("package", PLANNING_PACKAGES)
def test_planning_package_imports_no_networkx(package):
    files = sorted((SRC / package).rglob("*.py"))
    assert files
    offenders = {
        str(path.relative_to(SRC)): hits
        for path in files
        if (hits := networkx_imports(path))
    }
    assert offenders == {}


def test_scanner_sees_the_network_layer_imports():
    # The comm graph keeps networkx; the scan must find it there. (The
    # routing tree walks the comm graph's adjacency without importing
    # networkx itself.)
    assert networkx_imports(SRC / "network" / "topology.py")
