"""Load generation against a running path-query server.

:func:`run_load` drives a traffic list (see
:func:`repro.workloads.traffic.service_traffic`) through one blocking
:class:`~repro.service.client.ServiceClient`, timing every request, and
returns a :class:`LoadReport` with throughput and tail latency — the
measurement behind ``repro bench-serve`` and
``benchmarks/bench_service.py``.

Structured protocol errors are *counted*, not raised: a load run should
observe rejections (overload, deadlines), never crash on them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError


@dataclass
class LoadReport:
    """Outcome of one load run."""

    requests: int = 0
    ok: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Latency quantile in seconds (0 when nothing succeeded)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[rank]

    @property
    def throughput(self) -> float:
        """Completed requests per second of wall time."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.requests / self.elapsed_seconds

    def summary(self) -> Dict[str, Any]:
        """JSON-ready digest of the run."""
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": dict(self.errors),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "throughput_rps": round(self.throughput, 2),
            "latency_ms": {
                "mean": round(
                    sum(self.latencies) / len(self.latencies) * 1000, 4
                )
                if self.latencies
                else 0.0,
                "p50": round(self.percentile(0.50) * 1000, 4),
                "p99": round(self.percentile(0.99) * 1000, 4),
                "max": round(max(self.latencies, default=0.0) * 1000, 4),
            },
        }

    def format(self) -> str:
        """A human-readable run summary."""
        digest = self.summary()
        lat = digest["latency_ms"]
        lines = [
            f"requests    {digest['requests']} "
            f"({digest['ok']} ok, {sum(self.errors.values())} errors)",
            f"elapsed     {digest['elapsed_seconds']:.3f} s",
            f"throughput  {digest['throughput_rps']:.1f} req/s",
            f"latency     mean {lat['mean']:.3f} ms · "
            f"p50 {lat['p50']:.3f} ms · p99 {lat['p99']:.3f} ms · "
            f"max {lat['max']:.3f} ms",
        ]
        for code, count in sorted(self.errors.items()):
            lines.append(f"error       {code}: {count}")
        return "\n".join(lines)


def run_load(
    host: str,
    port: int,
    ops: Sequence,
    deadline_ms: Optional[float] = None,
    timeout: float = 30.0,
) -> LoadReport:
    """Send ``ops`` sequentially, timing each request.

    ``ops`` holds tagged tuples: ``("query", s, t, k)`` and
    ``("update", u, v, insert)``.  Each request carries ``deadline_ms``
    if given.  Latency is measured per request (send to response);
    structured errors are tallied by error code in the report.
    """
    report = LoadReport()
    started = time.perf_counter()
    with ServiceClient(host, port, timeout=timeout) as client:
        for op in ops:
            kind = op[0]
            begun = time.perf_counter()
            try:
                if kind == "query":
                    client.query(op[1], op[2], op[3], deadline_ms=deadline_ms)
                elif kind == "update":
                    client.update(op[1], op[2], op[3], deadline_ms=deadline_ms)
                else:
                    raise ValueError(f"unknown traffic op {kind!r}")
            except ServiceError as exc:
                report.errors[exc.code] = report.errors.get(exc.code, 0) + 1
            else:
                report.ok += 1
                report.latencies.append(time.perf_counter() - begun)
            report.requests += 1
    report.elapsed_seconds = time.perf_counter() - started
    return report


__all__ = [
    "LoadReport",
    "run_load",
]
