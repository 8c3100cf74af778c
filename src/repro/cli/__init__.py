"""Command-line interface.

``python -m repro`` exposes the library's main workflows without
writing code:

* ``generate`` — create and save a paper-parameter WRSN instance;
* ``plan`` — run one planner on a stored or generated instance,
  validate the schedule and optionally save it;
* ``simulate`` — the long-horizon monitoring simulation;
* ``bench`` — regenerate paper figures as tables and ASCII plots, and
  optionally a Markdown + JSON report;
* ``eval`` — planners head to head over a scenario matrix (one group
  of it compares them on one instance, with or without faults);
* ``serve`` / ``daemon`` — planning jobs as a batch or a service;
* ``inspect``, ``lint``, ``sanitize`` — instance analysis, the static
  rules and the determinism sanitizer.
"""

from repro.cli.main import build_parser, main

__all__ = ["build_parser", "main"]
