"""Project-specific lint rules.

Importing this package registers every rule with
:mod:`repro.lint.registry`:

* ``unit-suffix`` (R1) — physical-quantity names carry unit tokens.
* ``float-eq`` (R2) — no exact ``==``/``!=`` on physical quantities.
* ``seeded-rng`` (R3) — no unseeded global randomness outside tests.
* ``mutable-default`` (R4) — no mutable or class-instance default
  arguments.
* ``import-layer`` (R5) — the package layering contract.
* ``api-drift`` (R6) — ``docs/API.md`` matches the public API.
* ``euclidean-call`` (R7) — distances go through the shared cache.
* ``unordered-iteration`` (R8) — no set/frozenset iteration into
  order-sensitive sinks without ``sorted()``.
* ``wall-clock`` (R9) — no clock or environment reads in the
  deterministic layers (geometry..pipeline).
* ``pool-payload`` (R10) — callables submitted to
  ``serve.pool.run_tasks`` or ``serve.pool.SupervisedPool`` are
  module-level importable.
* ``cache-mutation`` (R11) — ``PlanningContext`` memo fields are
  written only inside ``repro.pipeline``.

R1–R5 and R7–R9/R11 are per-file AST checks; R6 and R10 are
project-level rules that see the whole linted file set (and, for R10,
the cross-module import index of :mod:`repro.lint.callgraph`).
"""

from repro.lint.rules import api_drift, cachemutation, defaults, distance
from repro.lint.rules import floateq, layering, poolpayload, randomness
from repro.lint.rules import units, unordered, wallclock

__all__ = [
    "api_drift",
    "cachemutation",
    "defaults",
    "distance",
    "floateq",
    "layering",
    "poolpayload",
    "randomness",
    "units",
    "unordered",
    "wallclock",
]
