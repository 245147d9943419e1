"""R008 — nondeterminism sources reachable from equivalence-gated code.

The algorithm layer (``repro.core``) is gated on *byte-identical*
answers: CI diffs the fixed-seed benchmark's answers across Python
versions.  One stray wall-clock read, unseeded ``random``
call, ``uuid1/uuid4`` mint, unsorted directory listing, or
``id()``-based ordering anywhere in ``repro.core`` — **or in any
function it reaches through the call graph** — breaks that gate
nondeterministically, which is the worst way to break it.

Flagged:

- ``time.time`` / ``time.time_ns`` (wall clock; ``perf_counter`` and
  ``monotonic`` are allowed — elapsed-time *stats* are not part of the
  equivalence surface);
- module-level ``random.*`` draws (``random.Random(seed)`` instances
  are fine — seeding is exactly the sanctioned pattern);
- ``uuid.uuid1`` / ``uuid.uuid4``;
- ``os.listdir`` / ``os.scandir`` / ``glob.glob`` / ``glob.iglob`` and
  the ``Path.iterdir/glob/rglob`` methods, unless wrapped directly in
  ``sorted(...)``;
- ``id`` used as an ordering key (``sorted(xs, key=id)``).

Unordered ``set`` → sequence conversions are R004's per-module beat;
R008 does not duplicate them.  Out-of-scope modules are only flagged
when the call graph shows a scoped function reaching them — the
finding message names the caller that puts them in scope.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.program import ProgramFacts
from repro.analysis.registry import LintContext, Rule, register
from repro.analysis.sources import SourceModule
from repro.analysis.visitor import dotted_name

#: Package prefixes whose output is equivalence-gated.
SCOPED_PREFIXES: Tuple[str, ...] = (
    "repro.core",
)

_WALL_CLOCK = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.date.today": "wall-clock read",
}

_UUID = {
    "uuid.uuid1": "host/time-dependent UUID",
    "uuid.uuid4": "random UUID",
}

_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

_LISTING_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})

_ORDERING_CALLS = frozenset({"sorted", "min", "max"})


def _in_scope(module_name: str) -> bool:
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in SCOPED_PREFIXES
    )


class _NondeterminismVisitor(ast.NodeVisitor):
    """Flag nondeterminism sources inside reachable functions."""

    def __init__(
        self,
        module: SourceModule,
        rule: "NondeterminismRule",
        program: ProgramFacts,
        reached: Dict[str, Optional[str]],
    ) -> None:
        self.module = module
        self.rule = rule
        self.program = program
        self.reached = reached
        self.findings: List[Finding] = []
        self._names: List[str] = [module.name]
        self._sorted_args: Set[int] = set()

    # -- scope bookkeeping ---------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._names.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._names.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def _visit_scope(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._names.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._names.pop()

    def _enclosing(self) -> str:
        return ".".join(self._names)

    def _active(self) -> Optional[str]:
        """Why this location is in scope, or None when it is not.

        Returns ``""`` for directly scoped code and the reaching
        caller's qualname for call-graph-reached code.
        """
        if _in_scope(self.module.name):
            return ""
        qualname = self._enclosing()
        if qualname in self.reached:
            predecessor = self.reached.get(qualname)
            return predecessor or ""
        return None

    # -- detection ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        func_name = dotted_name(func)
        if isinstance(func, ast.Name) and func.id == "sorted" and node.args:
            self._sorted_args.add(id(node.args[0]))
        via = self._active()
        if via is not None:
            self._check_call(node, func, func_name, via)
        self.generic_visit(node)

    def _check_call(
        self,
        node: ast.Call,
        func: ast.expr,
        func_name: Optional[str],
        via: str,
    ) -> None:
        resolved = (
            self.program.resolve(self.module, func_name)
            if func_name is not None
            else None
        )
        if resolved in _WALL_CLOCK:
            self._report(node, f"{resolved}(): {_WALL_CLOCK[resolved]}", via)
            return
        if resolved in _UUID:
            self._report(node, f"{resolved}(): {_UUID[resolved]}", via)
            return
        if (
            resolved is not None
            and resolved.startswith("random.")
            and resolved.split(".", 1)[1] in _RANDOM_FUNCS
        ):
            self._report(
                node,
                f"{resolved}(): unseeded module-level random draw "
                "(use a seeded random.Random instance)",
                via,
            )
            return
        if resolved in _LISTING_CALLS and id(node) not in self._sorted_args:
            self._report(
                node,
                f"{resolved}() returns entries in filesystem order; "
                "wrap in sorted(...)",
                via,
            )
            return
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _LISTING_METHODS
            and not isinstance(func.value, ast.Constant)
            and id(node) not in self._sorted_args
        ):
            self._report(
                node,
                f".{func.attr}() yields entries in filesystem order; "
                "wrap in sorted(...)",
                via,
            )
            return
        self._check_id_ordering(node, func, via)

    def _check_id_ordering(
        self, node: ast.Call, func: ast.expr, via: str
    ) -> None:
        is_ordering = (
            isinstance(func, ast.Name) and func.id in _ORDERING_CALLS
        ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
        if not is_ordering:
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            value = keyword.value
            uses_id = isinstance(value, ast.Name) and value.id == "id"
            if isinstance(value, ast.Lambda):
                uses_id = any(
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "id"
                    for inner in ast.walk(value.body)
                )
            if uses_id:
                self._report(
                    node,
                    "ordering by id(): interpreter-address order varies "
                    "run to run; key on stable data instead",
                    via,
                )

    def _report(self, node: ast.Call, what: str, via: str) -> None:
        message = f"nondeterminism source in equivalence-gated code: {what}"
        if via:
            message += f" (reachable from {via})"
        self.findings.append(
            Finding(
                str(self.module.path),
                node.lineno,
                node.col_offset,
                self.rule.code,
                message,
            )
        )


@register
class NondeterminismRule(Rule):
    """No nondeterminism sources reachable from equivalence-gated code."""

    code = "R008"
    name = "nondeterminism"
    description = (
        "repro.core (and functions it reaches) must not "
        "read wall clocks, draw unseeded randomness, mint uuid1/uuid4, "
        "consume unsorted directory listings, or order by id()"
    )
    phase = "program"

    def check_program(
        self, program: ProgramFacts, context: LintContext
    ) -> Iterator[Finding]:
        roots: List[str] = [
            module.name for module in program.modules
            if _in_scope(module.name)
        ]
        roots.extend(
            qualname
            for qualname, summary in program.functions.items()
            if _in_scope(summary.module_name)
        )
        reached = program.reachable_from(roots)
        for module in program.modules:
            if not _in_scope(module.name):
                # only worth walking when some function here was reached
                prefix = module.name + "."
                if not any(
                    name == module.name or name.startswith(prefix)
                    for name in reached
                ):
                    continue
            visitor = _NondeterminismVisitor(module, self, program, reached)
            visitor.visit(module.tree)
            yield from visitor.findings


__all__ = ["SCOPED_PREFIXES", "NondeterminismRule"]
