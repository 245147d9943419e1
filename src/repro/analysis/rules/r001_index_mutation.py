"""R001 — index mutations stay inside the maintenance layer.

The CPE index is only correct while every ``PathBuckets`` write preserves
the admissibility invariants (``i + Dist_t[v] <= k``, ``j + Dist_s[v] <= k``
— Theorems 1–2); those writes are owned by construction and maintenance.
Any other module calling ``add_left`` / ``remove_right`` / ``left.add`` /
``right.remove`` / ``left.add_level`` (the bulk write of a level's paths
and masks), or assigning ``direct_edge``, can corrupt the index without
failing a single test — wrong answers, not crashes.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import LintContext, Rule, register
from repro.analysis.sources import SourceModule
from repro.analysis.visitor import RuleVisitor

#: Modules allowed to mutate the index (plus the defining module itself).
ALLOWED_MODULES: FrozenSet[str] = frozenset(
    {
        "repro.core.index",
        "repro.core.construction",
        "repro.core.maintenance",
        "repro.core.maintenance_strict",
    }
)

#: PartialPathIndex mutators — unambiguous regardless of the receiver.
_INDEX_MUTATORS = frozenset(
    {"add_left", "remove_left", "add_right", "remove_right"}
)

#: PathBuckets mutators — flagged when called through a `.left`/`.right`
#: receiver (a plain ``seen.add(...)`` on a local set is untouched).
_BUCKET_MUTATORS = frozenset({"add", "add_level", "remove"})

_BUCKET_SIDES = frozenset({"left", "right"})


class _IndexMutationVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _INDEX_MUTATORS:
                self.report(
                    node,
                    f"index mutator '{func.attr}()' outside the maintenance "
                    f"layer (allowed: {', '.join(sorted(ALLOWED_MODULES))})",
                )
            elif func.attr in _BUCKET_MUTATORS and (
                isinstance(func.value, ast.Attribute)
                and func.value.attr in _BUCKET_SIDES
            ):
                self.report(
                    node,
                    f"PathBuckets mutator '.{func.value.attr}.{func.attr}()' "
                    "outside the maintenance layer",
                )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute) and target.attr == "direct_edge":
            self.report(
                target,
                "assignment to 'direct_edge' outside the maintenance layer",
            )


@register
class IndexMutationRule(Rule):
    """No ``PathBuckets``/index mutation outside the maintenance layer."""

    code = "R001"
    name = "index-mutation"
    description = (
        "PathBuckets/index internals may only be mutated by "
        "repro.core.{construction,maintenance,maintenance_strict}"
    )

    def check(
        self, module: SourceModule, context: LintContext
    ) -> Iterator[Finding]:
        if module.name in ALLOWED_MODULES:
            return
        visitor = _IndexMutationVisitor(module, self.code)
        visitor.visit(module.tree)
        yield from visitor.findings


__all__ = ["ALLOWED_MODULES", "IndexMutationRule"]
