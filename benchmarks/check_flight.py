#!/usr/bin/env python
"""Validate a ``repro-flight/1`` bundle artifact (CI smoke).

Usage::

    python benchmarks/check_flight.py path/to/flight.json \
        [--reason deadline-burst] [--min-processes 1]

Checks, in order:

1. the file is a ``repro-flight/1`` bundle that
   :func:`repro.obs.flight.validate_flight_bundle` accepts;
2. with ``--reason``, the bundle's recorded trigger matches (a burst
   dump must say ``deadline-burst``, not ``manual``);
3. with ``--min-processes``, at least that many process records made it
   into the bundle.

Exit status 0 when the bundle is sound, 1 with one problem per line
otherwise — the shape CI steps want.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.flight import validate_flight_bundle


def check_flight(
    payload: object,
    reason: Optional[str] = None,
    min_processes: int = 1,
) -> List[str]:
    """Every problem with a flight bundle payload (empty = sound)."""
    problems = list(validate_flight_bundle(payload))
    if problems:
        return problems
    assert isinstance(payload, dict)  # validate_flight_bundle guarantees
    if reason is not None and payload.get("reason") != reason:
        problems.append(
            f"expected reason {reason!r}, got {payload.get('reason')!r}"
        )
    processes = payload.get("processes", [])
    if len(processes) < min_processes:
        problems.append(
            f"expected at least {min_processes} process records, "
            f"got {len(processes)}"
        )
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("bundle", help="flight bundle JSON file")
    parser.add_argument(
        "--reason", default=None,
        help="require the bundle's recorded trigger to match",
    )
    parser.add_argument(
        "--min-processes", type=int, default=1,
        help="minimum process records required (default: 1)",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.bundle, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read bundle: {exc}", file=sys.stderr)
        return 1
    problems = check_flight(
        payload, reason=args.reason, min_processes=args.min_processes
    )
    if problems:
        for problem in problems:
            print(f"FLIGHT PROBLEM: {problem}")
        return 1
    processes = payload["processes"]
    spans = sum(len(p.get("spans", [])) for p in processes)
    print(
        f"flight OK: reason {payload['reason']!r}, "
        f"{len(processes)} process records, {spans} spans"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))


__all__ = [
    "check_flight",
    "main",
]
