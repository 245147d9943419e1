"""Project-specific static analysis: the ``repro lint`` engine.

The CPE index is only correct while its admissibility invariants are
preserved by every code path that touches it, and the service layer is
only responsive while nothing blocks its event loop — failure modes
that surface as *wrong answers*, not crashes.  This package catches the
offending shapes before runtime with a two-phase whole-program lint:

- :mod:`repro.analysis.engine` — :func:`run_lint` + :class:`LintReport`;
- :mod:`repro.analysis.program` — phase 1: cross-module facts (import
  aliases, call graph, mutation summaries, wire-protocol registries);
- :mod:`repro.analysis.registry` — the rule registry and base class;
- :mod:`repro.analysis.rules` — the project rules R001–R012 and W001;
- :mod:`repro.analysis.sources` — source collection and per-line
  ``# repro: noqa[RULE]`` suppression;
- :mod:`repro.analysis.apidoc` — the ``docs/API.md`` reader backing the
  export-consistency rule;
- :mod:`repro.analysis.reporters` — text, JSON, and SARIF 2.1.0
  rendering.

CLI entry point: ``repro lint [--format text|json|sarif]
[--select RULES] [paths]`` (see docs/ANALYSIS.md for the rule
catalogue).  Inline ``# repro: noqa[RULE]`` is the only suppression.
"""

from repro.analysis.engine import LintReport, run_lint
from repro.analysis.findings import Finding
from repro.analysis.program import ProgramFacts, build_program
from repro.analysis.registry import LintContext, Rule, all_rules, rules_for
from repro.analysis.reporters import render_json, render_sarif, render_text

__all__ = [
    "LintReport",
    "run_lint",
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "rules_for",
    "ProgramFacts",
    "build_program",
    "render_json",
    "render_sarif",
    "render_text",
]
