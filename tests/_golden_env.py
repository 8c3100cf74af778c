"""The environment the committed goldens were verified under.

Every golden (``tests/data/planner_golden.jsonl``,
``tests/data/figure_golden.json``) stores ``float.hex`` values, and
every distance behind them is CPython's ``math.hypot``, whose bits
depend on the interpreter (3.9 rounds differently from 3.10–3.13).
``tests/data/golden_env.json`` records the versions the goldens were
verified under and a digest of ``math.hypot`` bits, so a golden
mismatch can be read as "environment changed" or "output changed".
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import random
from pathlib import Path
from typing import Dict

GOLDEN_ENV = Path(__file__).parent / "data" / "golden_env.json"

_PACKAGES = ("numpy", "scipy", "networkx")


def recorded_env() -> Dict:
    """The committed ``golden_env.json``."""
    return json.loads(GOLDEN_ENV.read_text())


def running_env() -> Dict[str, str]:
    """Python and package versions of the running interpreter."""
    import networkx
    import numpy
    import scipy

    modules = {"numpy": numpy, "scipy": scipy, "networkx": networkx}
    env = {"python": platform.python_version()}
    env.update({name: modules[name].__version__ for name in _PACKAGES})
    return env


def env_note() -> str:
    """One line naming the recorded and the running versions."""
    recorded = recorded_env()
    running = running_env()
    keys = ("python",) + _PACKAGES
    return (
        "goldens verified under "
        + ", ".join(f"{k} {recorded[k]}" for k in keys)
        + "; running "
        + ", ".join(f"{k} {running[k]}" for k in keys)
    )


def hypot_digest(pairs: int, seed: int) -> str:
    """sha256 of ``math.hypot(a, b).hex()`` over seeded uniform pairs
    in ``[-1000, 1000]²``, concatenated."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(pairs):
        a = rng.uniform(-1000.0, 1000.0)
        b = rng.uniform(-1000.0, 1000.0)
        digest.update(math.hypot(a, b).hex().encode())
    return digest.hexdigest()
