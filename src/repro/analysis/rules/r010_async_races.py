"""R010 — unsynchronized attribute writes across concurrent entry points.

The service layer (:mod:`repro.service`) mixes asyncio handlers with
thread-pool executors.  An instance attribute written from **two different
coroutine entry points**, or from **both async and sync code** (the
executor + event-loop split), without an ``asyncio.Lock`` (or any
``with <...lock...>`` guard) is a race: the interleaving that corrupts
it shows up only under load, far from the write.

R010 consumes the phase-1 class summaries: every ``self.<attr>`` write
site is recorded with its writing method, asyncness, and whether a
lock context manager dominates it.  A class attribute is flagged when,
ignoring ``__init__``-time construction writes:

- at least two *distinct* async methods write it, or an async method
  and a sync method both write it, and
- at least one of those writes is not under a ``with <lock>:`` block.

Every unguarded write site of the offending attribute is reported, so
the fix (one lock around all of them) is visible from the findings
alone.  Single-writer attributes, init-only attributes, and fully
locked write sets are fine.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.analysis.findings import Finding
from repro.analysis.program import AttrWrite, ProgramFacts
from repro.analysis.registry import LintContext, Rule, register

#: Packages with concurrent entry points worth policing.
SCOPED_PREFIXES: Tuple[str, ...] = (
    "repro.service",
)


def _in_scope(module_name: str) -> bool:
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in SCOPED_PREFIXES
    )


@register
class AsyncSharedStateRule(Rule):
    """Concurrently written attributes need a dominating lock."""

    code = "R010"
    name = "async-shared-state"
    description = (
        "an instance attribute written from two async methods, or from "
        "async and sync code, must have every write under a lock — "
        "unguarded cross-entry-point writes race under load"
    )
    phase = "program"

    def check_program(
        self, program: ProgramFacts, context: LintContext
    ) -> Iterator[Finding]:
        for qualname in sorted(program.classes):
            summary = program.classes[qualname]
            if not _in_scope(summary.module_name):
                continue
            module = program.module_by_name.get(summary.module_name)
            if module is None:
                continue
            by_attr: Dict[str, List[AttrWrite]] = {}
            for write in summary.attr_writes:
                if write.in_init:
                    continue
                by_attr.setdefault(write.attr, []).append(write)
            for attr in sorted(by_attr):
                writes = by_attr[attr]
                async_methods = {
                    w.method_qualname for w in writes if w.is_async
                }
                sync_methods = {
                    w.method_qualname for w in writes if not w.is_async
                }
                concurrent = len(async_methods) >= 2 or (
                    async_methods and sync_methods
                )
                if not concurrent:
                    continue
                unguarded = [w for w in writes if not w.locked]
                if not unguarded:
                    continue
                writers = sorted(
                    {w.method for w in writes}
                )
                flavor = (
                    "multiple async entry points"
                    if len(async_methods) >= 2 and not sync_methods
                    else "async and sync entry points"
                )
                for write in unguarded:
                    yield Finding(
                        str(module.path),
                        write.line,
                        write.col,
                        self.code,
                        f"self.{attr} is written from {flavor} "
                        f"({', '.join(writers)}) but this write in "
                        f"{write.method} holds no lock; guard every "
                        "write with a shared asyncio.Lock",
                    )


__all__ = ["SCOPED_PREFIXES", "AsyncSharedStateRule"]
