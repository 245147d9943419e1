"""R009 — shared ``DistanceMap`` masters must be cloned before injection.

The service cache's miss path (:mod:`repro.service.cache`) seeds a new
index build from a live entry's hop-capped BFS map by passing
``dist_s=`` into :func:`repro.core.construction.build_index` (the one
injectable map: ``Dist_t`` is always built, pruned by the pair's own
``Dist_s``).  The contract (documented on ``build_index`` itself) is
that an injected map is *owned by the returned index's maintainer from
then on* — so a master that is reused must be passed as a
:meth:`~repro.core.distance.DistanceMap.clone`.
Violating it does not crash: the first update after the build mutates
every aliased index's distances at once — silently wrong answers that
only a differential check against brute force catches.

A single-file linter cannot see this — the master lives in one
function, the injection in another, often in another module.  R009
walks the call graph instead:

- every call site of ``build_index`` with a ``dist_s`` argument must
  pass a **clone-fresh** expression: ``None``, a direct
  ``.clone()`` call, a fresh ``DistanceMap(...)`` construction, a
  conditional of those, or a local name every assignment of which is
  clone-fresh;
- when the argument is a *parameter* of the enclosing function, the
  rule follows the call graph one level up: each caller must itself
  pass a clone-fresh value — a shared master handed through a helper
  is flagged at the helper's call site.

Suppress with ``# repro: noqa[R009]`` only where ownership transfer is
the point (e.g. a builder that constructed the map and never touches
it again).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.program import CallSite, ProgramFacts
from repro.analysis.registry import LintContext, Rule, register
from repro.analysis.visitor import dotted_name

#: The injection target and the positional slot of its dist argument.
BUILD_INDEX = "repro.core.construction.build_index"
_DIST_POSITIONS = {5: "dist_s"}
_DIST_KEYWORDS = ("dist_s",)

#: Fully qualified constructors that produce a fresh, unshared map.
_FRESH_CONSTRUCTORS = ("repro.core.distance.DistanceMap",)

_MAX_CALLER_HOPS = 4


def _dist_args(site: CallSite) -> List[Tuple[str, ast.expr]]:
    """The ``(slot, expression)`` dist arguments at one call site."""
    found: List[Tuple[str, ast.expr]] = []
    for position, slot in _DIST_POSITIONS.items():
        if len(site.node.args) > position:
            found.append((slot, site.node.args[position]))
    for keyword in site.node.keywords:
        if keyword.arg in _DIST_KEYWORDS:
            found.append((keyword.arg, keyword.value))
    return found


class _Classifier:
    """Clone-freshness classification of one expression in context."""

    def __init__(self, program: ProgramFacts) -> None:
        self.program = program

    def is_fresh(
        self,
        expr: ast.expr,
        site: CallSite,
        hops: int,
    ) -> Tuple[bool, Optional[str]]:
        """(fresh, param-name-if-unresolved-parameter)."""
        if isinstance(expr, ast.Constant) and expr.value is None:
            return True, None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "clone":
                return True, None
            name = dotted_name(func)
            if name is not None:
                resolved = self.program.resolve(site.module, name)
                if resolved in _FRESH_CONSTRUCTORS or (
                    resolved is not None
                    and resolved.endswith(".DistanceMap")
                ):
                    return True, None
            return False, None
        if isinstance(expr, ast.IfExp):
            body_fresh, body_param = self.is_fresh(expr.body, site, hops)
            else_fresh, else_param = self.is_fresh(expr.orelse, site, hops)
            return body_fresh and else_fresh, body_param or else_param
        if isinstance(expr, ast.Name):
            return self._name_is_fresh(expr.id, site, hops)
        return False, None

    def _name_is_fresh(
        self, name: str, site: CallSite, hops: int
    ) -> Tuple[bool, Optional[str]]:
        scope = site.enclosing
        assignments: List[ast.expr] = []
        if scope is not None:
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name) and target.id == name:
                            assignments.append(node.value)
                elif isinstance(node, ast.AnnAssign):
                    if (
                        isinstance(node.target, ast.Name)
                        and node.target.id == name
                        and node.value is not None
                    ):
                        assignments.append(node.value)
                elif isinstance(node, ast.NamedExpr):
                    if (
                        isinstance(node.target, ast.Name)
                        and node.target.id == name
                    ):
                        assignments.append(node.value)
        if assignments:
            for value in assignments:
                fresh, param = self.is_fresh(value, site, hops)
                if not fresh:
                    return False, param
            return True, None
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [arg.arg for arg in (
                *scope.args.posonlyargs, *scope.args.args,
                *scope.args.kwonlyargs,
            )]
            if name in params:
                return False, name
        return False, None


class _RuleRunner:
    def __init__(self, rule: "DistMapAliasingRule", program: ProgramFacts):
        self.rule = rule
        self.program = program
        self.classifier = _Classifier(program)
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        for site in self.program.sites_by_callee.get(BUILD_INDEX, []):
            for slot, expr in _dist_args(site):
                self._check(site, slot, expr, BUILD_INDEX, hops=0)
        return self.findings

    def _check(
        self,
        site: CallSite,
        slot: str,
        expr: ast.expr,
        target: str,
        hops: int,
    ) -> None:
        fresh, param = self.classifier.is_fresh(expr, site, hops)
        if fresh:
            return
        if param is None:
            self._report(site, slot, target)
            return
        # The value is a bare parameter of the enclosing function: walk
        # one level up the call graph and hold each caller to the same
        # contract at its own call site.
        if hops >= _MAX_CALLER_HOPS:
            self._report(site, slot, target)
            return
        forwarder = self._enclosing_qualname(site)
        if forwarder is None:
            self._report(site, slot, target)
            return
        caller_sites = self.program.sites_by_callee.get(forwarder, [])
        if not caller_sites:
            # a library entry point with no visible callers: the clone
            # obligation transfers to callers we cannot see — trust it.
            return
        summary = self.program.functions.get(forwarder)
        if summary is None:
            self._report(site, slot, target)
            return
        for caller_site in caller_sites:
            arg = self._argument_for(caller_site.node, summary.params, param)
            if arg is None:
                continue
            self._check(caller_site, slot, arg, forwarder, hops + 1)

    def _enclosing_qualname(self, site: CallSite) -> Optional[str]:
        scope = site.enclosing
        if scope is None:
            return None
        caller = site.caller
        if caller in self.program.functions:
            return caller
        return None

    @staticmethod
    def _argument_for(
        call: ast.Call, params: Tuple[str, ...], param: str
    ) -> Optional[ast.expr]:
        for keyword in call.keywords:
            if keyword.arg == param:
                return keyword.value
        try:
            index = params.index(param)
        except ValueError:
            return None
        # a bound method call site omits ``self``
        offset = 1 if params and params[0] in ("self", "cls") else 0
        position = index - offset
        if 0 <= position < len(call.args):
            return call.args[position]
        return None

    def _report(self, site: CallSite, slot: str, target: str) -> None:
        short = target.rsplit(".", 1)[-1]
        self.findings.append(
            Finding(
                str(site.module.path),
                site.node.lineno,
                site.node.col_offset,
                self.rule.code,
                f"shared DistanceMap flows into {short}({slot}=...) "
                "without a dominating .clone(); the index maintainer "
                "takes ownership and will mutate the master",
            )
        )


@register
class DistMapAliasingRule(Rule):
    """Injected distance maps must be clone-fresh at every build site."""

    code = "R009"
    name = "distmap-aliasing"
    description = (
        "dist_s injected into build_index must be None, a fresh "
        "DistanceMap, or a .clone() — shared masters (including ones "
        "forwarded through helper parameters) must be cloned first"
    )
    phase = "program"

    def check_program(
        self, program: ProgramFacts, context: LintContext
    ) -> Iterator[Finding]:
        yield from _RuleRunner(self, program).run()


__all__ = ["BUILD_INDEX", "DistMapAliasingRule"]
