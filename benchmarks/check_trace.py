#!/usr/bin/env python
"""Validate a ``repro explain --format trace`` artifact (CI smoke).

Usage::

    python benchmarks/check_trace.py path/to/explain_trace.json

Checks, in order:

1. the file is Chrome trace-event JSON that
   :func:`repro.obs.trace.validate_chrome_trace` accepts;
2. the explain instants are present (``explain.cut``,
   ``explain.level``);
3. the embedded ``repro-explain/1`` report is attached under
   ``metadata.explain`` and, when the trace was recorded with
   ``--analyze``: there is exactly one ``explain.join`` instant per
   plan pair, and each pair's measured ``probes`` equals its
   ``estimates[].est_output`` (both are read off the same join-program
   step).

Exit status 0 when the trace is sound, 1 with one problem per line
otherwise — the shape CI steps want.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from typing import List

from repro.obs.trace import validate_chrome_trace

#: Instants every explain trace must contain (ANALYZE adds one
#: explain.join per plan pair).
REQUIRED_INSTANTS = ("explain.cut", "explain.level")


def check_trace(payload: object) -> List[str]:
    """Every problem with an explain trace payload (empty = sound)."""
    problems = list(validate_chrome_trace(payload))
    if problems:
        return problems
    assert isinstance(payload, dict)  # validate_chrome_trace guarantees
    names = {event.get("name") for event in payload["traceEvents"]}
    for required in REQUIRED_INSTANTS:
        if required not in names:
            problems.append(f"missing instant event {required!r}")
    explain = payload.get("metadata", {}).get("explain")
    if not isinstance(explain, dict):
        problems.append("metadata.explain report is missing")
        return problems
    if explain.get("schema") != "repro-explain/1":
        problems.append(
            f"unexpected explain schema {explain.get('schema')!r}"
        )
    if explain.get("analyze"):
        problems.extend(_join_problems(payload["traceEvents"], explain))
    return problems


def _join_problems(events: List[dict], explain: dict) -> List[str]:
    """Per-pair accounting of an ANALYZE trace: one ``explain.join``
    instant per plan pair, its probes equal to the pair's estimate."""
    problems: List[str] = []
    joins = [
        event.get("args", {})
        for event in events
        if event.get("name") == "explain.join"
    ]
    seen = Counter((args.get("i"), args.get("j")) for args in joins)
    plan = Counter(tuple(pair) for pair in explain.get("plan", []))
    if seen != plan:
        problems.append(
            "explain.join instants do not match the plan pairs: missing "
            f"{sorted(map(str, plan - seen))}, extra "
            f"{sorted(map(str, seen - plan))}"
        )
    estimates = {
        (est.get("i"), est.get("j")): est.get("est_output")
        for est in explain.get("estimates", [])
    }
    for args in joins:
        pair = (args.get("i"), args.get("j"))
        if args.get("probes") != estimates.get(pair):
            problems.append(
                f"explain.join {pair}: probes {args.get('probes')} != "
                f"estimated output {estimates.get(pair)}"
            )
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: check_trace.py TRACE_JSON", file=sys.stderr)
        return 2
    try:
        with open(argv[0], "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    problems = check_trace(payload)
    if problems:
        for problem in problems:
            print(f"TRACE PROBLEM: {problem}")
        return 1
    events = payload["traceEvents"]
    spans = sum(1 for event in events if event["ph"] == "X")
    print(f"trace OK: {len(events)} events ({spans} spans), "
          f"schema {payload['metadata']['explain']['schema']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))


__all__ = [
    "REQUIRED_INSTANTS",
    "check_trace",
    "main",
]
