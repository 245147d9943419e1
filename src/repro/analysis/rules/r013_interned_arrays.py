"""R013 — interned array planes are read-only outside their owners.

The dense-int structures backing the hot paths — the graph's interned
adjacency arrays (``_out_ids`` / ``_in_ids``) and the index's mask map
(``PathBuckets._masks``, handed out live by ``masks()``: each stored
path's vertex bits, which the join ANDs instead of comparing paths) —
are *derived* views kept in lockstep with the authoritative dict/set
planes.  A direct ``append`` / ``remove`` / item-assignment on one of
them from outside the owning modules desynchronizes the planes
silently: the dict plane still answers correctly, the array plane feeds
the BFS/join wrong data, and no invariant check fires.  All writes must
flow through the graph's edge API or the index maintenance layer, which
update both planes together.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import LintContext, Rule, register
from repro.analysis.sources import SourceModule
from repro.analysis.visitor import RuleVisitor

#: Modules that own an interned plane and may write to it.
ALLOWED_MODULES: FrozenSet[str] = frozenset(
    {
        "repro.graph.digraph",
        "repro.core.index",
        "repro.core.construction",
        "repro.core.maintenance",
        "repro.core.maintenance_strict",
    }
)

#: Attribute names of the interned planes and the mask map.
_PLANE_ATTRS = frozenset({"_out_ids", "_in_ids", "_masks"})

#: Accessors returning a live plane: ``buckets.masks()[path] = 0`` writes
#: the mask map as surely as ``buckets._masks[path] = 0`` does.
_PLANE_ACCESSORS = frozenset({"masks"})

#: In-place mutators of ``list`` / ``array`` / ``dict`` receivers.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "sort",
        "reverse",
        "setdefault",
        "update",
    }
)


def _plane_receiver(node: ast.expr) -> str | None:
    """The plane's name if ``node`` reads one, else None.

    Matches a direct attribute (``x._masks``), an accessor call
    (``x.masks()``), and one level of subscripting on either
    (``x._out_ids[uid]`` — the per-vertex array).
    """
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _PLANE_ATTRS:
        return node.attr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _PLANE_ACCESSORS
        and not node.args
        and not node.keywords
    ):
        return f"{node.func.attr}()"
    return None


class _InternedArrayVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            plane = _plane_receiver(func.value)
            if plane is not None:
                self.report(
                    node,
                    f"in-place mutation '.{plane}…{func.attr}()' of an "
                    "interned array plane outside its owner (allowed: "
                    f"{', '.join(sorted(ALLOWED_MODULES))})",
                )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Subscript):
            plane = _plane_receiver(target)
            if plane is not None:
                self.report(
                    target,
                    f"item store into interned array plane '.{plane}[…]' "
                    "outside its owner",
                )
        elif isinstance(target, ast.Attribute) and target.attr in _PLANE_ATTRS:
            self.report(
                target,
                f"rebinding of interned array plane '.{target.attr}' "
                "outside its owner",
            )


@register
class InternedArrayMutationRule(Rule):
    """No writes to interned adjacency arrays or mask maps outside owners."""

    code = "R013"
    name = "interned-array-mutation"
    description = (
        "interned adjacency arrays and the index's mask map may only be "
        "written by repro.graph.digraph and the index/maintenance modules"
    )

    def check(
        self, module: SourceModule, context: LintContext
    ) -> Iterator[Finding]:
        if module.name in ALLOWED_MODULES:
            return
        visitor = _InternedArrayVisitor(module, self.code)
        visitor.visit(module.tree)
        yield from visitor.findings


__all__ = ["ALLOWED_MODULES", "InternedArrayMutationRule"]
