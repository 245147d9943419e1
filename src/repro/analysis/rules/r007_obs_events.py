"""R007 — no direct console/logging output in the engine or service.

The serving layers have a structured observability channel
(:mod:`repro.obs.events`): typed, correlation-stamped, bounded, and
pollable over the wire.  A stray ``print(...)`` or ``logging`` call in
``repro.core`` or ``repro.service`` bypasses all of that — it
interleaves with protocol output on stdout in embedded runs, is
invisible to ``repro top`` and the ``events`` op, and carries no
correlation id.
Emit an event (or raise) instead; genuinely exceptional diagnostics can
be suppressed per line with ``# repro: noqa[R007]``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.findings import Finding
from repro.analysis.registry import LintContext, Rule, register
from repro.analysis.sources import SourceModule
from repro.analysis.visitor import RuleVisitor

#: Package prefixes the rule polices (the serving and algorithm layers).
SCOPED_PREFIXES: Tuple[str, ...] = (
    "repro.core",
    "repro.service",
)


def _in_scope(module_name: str) -> bool:
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in SCOPED_PREFIXES
    )


class _ObsEventsVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            self.report(
                node,
                "direct print() in the engine/service layer; emit a "
                "structured event via repro.obs.events instead",
            )
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "logging" or alias.name.startswith("logging."):
                self.report(
                    node,
                    "stdlib logging in the engine/service layer; emit a "
                    "structured event via repro.obs.events instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "logging" or module.startswith("logging."):
            self.report(
                node,
                "stdlib logging in the engine/service layer; emit a "
                "structured event via repro.obs.events instead",
            )
        self.generic_visit(node)


@register
class ObsEventsRule(Rule):
    """No ``print``/``logging`` in the engine or service layer."""

    code = "R007"
    name = "obs-events"
    description = (
        "repro.core and repro.service must not print or use stdlib "
        "logging; diagnostics go through repro.obs.events"
    )

    def check(
        self, module: SourceModule, context: LintContext
    ) -> Iterator[Finding]:
        if not _in_scope(module.name):
            return
        visitor = _ObsEventsVisitor(module, self.code)
        visitor.visit(module.tree)
        yield from visitor.findings


__all__ = ["SCOPED_PREFIXES", "ObsEventsRule"]
