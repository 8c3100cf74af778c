"""Every script and test path the CI workflow names exists in the repo.

Deleting a script or a test module must not leave a CI step pointing at
nothing. The workflow is read as plain text: each ``python <path>.py``
and each path argument of ``pytest`` is checked, and a ``::Name`` node
id must name a class or function defined in its file.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

SCRIPT = re.compile(r"\bpython3?[ \t]+([\w./-]+\.py)\b")
PYTEST = re.compile(r"\bpytest((?:[ \t]+[^\s\\|;&]+)*)")


def workflow_targets():
    """``(scripts, pytest targets)`` named anywhere in the workflow."""
    text = WORKFLOW.read_text()
    scripts = SCRIPT.findall(text)
    targets = [
        arg
        for args in PYTEST.findall(text)
        for arg in args.split()
        if not arg.startswith("-")
    ]
    return scripts, targets


def test_named_scripts_exist():
    scripts, _ = workflow_targets()
    assert "tools/daemon_smoke.py" in scripts  # the scan sees steps
    missing = [s for s in scripts if not (ROOT / s).is_file()]
    assert missing == []


def test_named_pytest_targets_exist():
    _, targets = workflow_targets()
    assert "perfbench" in targets  # the scan sees steps
    for target in targets:
        path, _, node = target.partition("::")
        assert (ROOT / path).exists(), target
        for name in filter(None, node.split("::")):
            source = (ROOT / path).read_text()
            assert re.search(
                rf"^\s*(class|def)\s+{re.escape(name)}\b", source, re.M
            ), target
