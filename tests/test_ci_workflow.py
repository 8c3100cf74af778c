"""Every script, test path and CLI command the CI workflow names exists.

Deleting a script, a test module or a CLI option must not leave a CI
step pointing at nothing. The workflow is read as plain text: each
``python <path>.py`` and each path argument of ``pytest`` is checked, a
``::Name`` node id must name a class or function defined in its file,
and each ``python -m repro ...`` command must parse with the real
argument parser.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli.main import build_parser

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

SCRIPT = re.compile(r"\bpython3?[ \t]+([\w./-]+\.py)\b")
PYTEST = re.compile(r"\bpytest((?:[ \t]+[^\s\\|;&]+)*)")
REPRO = re.compile(r"\bpython3?[ \t]+-m[ \t]+repro[ \t]+(.*)$")


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


def repro_commands():
    """Argument lists of every ``python -m repro`` command in the
    workflow, backslash continuations joined; lines using shell
    variables (``$planner``) are skipped."""
    text = WORKFLOW.read_text().replace("\\\n", " ")
    commands = []
    for line in text.splitlines():
        match = REPRO.search(line)
        if match and "$" not in line:
            commands.append(shlex.split(match.group(1)))
    return commands


def test_named_repro_commands_parse():
    commands = repro_commands()
    assert len(commands) >= 5  # the scan sees steps
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"CI runs an unparseable command: repro {argv}")
