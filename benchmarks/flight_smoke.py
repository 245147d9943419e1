#!/usr/bin/env python
"""Set off a deadline burst under ``repro serve`` and collect the dump.

The CI flight-recorder smoke: start a real server subprocess with
metrics on (which installs the flight ring), send a few real requests
so the ring has spans, then send enough ``query`` requests with
``deadline_ms: 0`` to trip the deadline-burst trigger — the server
must write
``repro-flight-deadline-burst.json`` into ``--flight-dir``, and keep
answering normally afterwards.

Usage::

    python benchmarks/flight_smoke.py --out-dir flight-smoke --port 7497

Prints the dump path on success (exit 0); exits 1 with a diagnostic if
the server never comes up, a zero-deadline request is not refused, the
server stops answering, or no dump carrying spans appears.  Validate
the dump itself with ``check_flight.py``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.service.client import ServiceClient
from repro.service.protocol import DEADLINE_EXCEEDED

BURST_DUMP = "repro-flight-deadline-burst.json"

#: Deadline misses sent; the server's burst trigger fires at five.
BURST_SIZE = 5


def _connect(port: int, deadline: float) -> ServiceClient:
    last: Optional[Exception] = None
    while time.perf_counter() < deadline:
        try:
            return ServiceClient("127.0.0.1", port, timeout=10.0)
        except OSError as exc:
            last = exc
            time.sleep(0.2)
    raise RuntimeError(f"server never accepted a connection: {last}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--out-dir", default="flight-smoke",
        help="--flight-dir for the server (dump lands here)",
    )
    parser.add_argument("--port", type=int, default=7497)
    parser.add_argument(
        "--timeout", type=float, default=90.0,
        help="overall deadline in seconds",
    )
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_path = out_dir / BURST_DUMP
    if dump_path.exists():
        dump_path.unlink()

    deadline = time.perf_counter() + args.timeout
    log_path = out_dir / "flight-smoke-server.log"
    log = open(log_path, "w", encoding="utf-8")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "EP",
            "--scale", "0.1",
            "--port", str(args.port),
            "--metrics", "--events",
            "--flight-dir", str(out_dir),
            "--watch", "23:4",
        ],
        stdout=log,
        stderr=subprocess.STDOUT,
    )
    try:
        client = _connect(args.port, deadline)
        with client:
            # Real traffic so the flight ring has spans to dump.
            client.query(23, 4, 6)
            client.insert_edge(23, 4)
            client.delete_edge(23, 4)

            for _ in range(BURST_SIZE):
                response = client.request(
                    "query", deadline_ms=0, s=23, t=4, k=6
                )
                code = (response.error or {}).get("code")
                if code != DEADLINE_EXCEEDED:
                    print(
                        "FLIGHT SMOKE PROBLEM: a zero-deadline query "
                        f"answered {response.result or response.error!r}"
                    )
                    return 1
            client.query(23, 4, 6)

        bundle = None
        while bundle is None and time.perf_counter() < deadline:
            try:
                bundle = json.loads(dump_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):  # not there, or half written
                time.sleep(0.2)
        if bundle is None:
            print(f"FLIGHT SMOKE PROBLEM: no {BURST_DUMP} in {out_dir}")
            return 1
        if not any(proc.get("spans") for proc in bundle["processes"]):
            print(f"FLIGHT SMOKE PROBLEM: {dump_path} carries no spans")
            return 1
        print(dump_path)
        return 0
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        log.close()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))


__all__ = [
    "BURST_DUMP",
    "BURST_SIZE",
    "main",
]
