"""Served-traffic benchmark: one workload through a real ``repro serve``.

Usage (from the repository root)::

    python3 servebench/run.py --workload query_hot --seed 1 --seconds 15 --trace 0

Workloads (see ``traffic.py``; WG at scale 1.0, k=7, default server):

- ``monitor``: 64 watched top-10% pairs; the timed phase is a pure
  stream of edge round trips relevant to them (2 per pair and cycle).
  Graph mutation, distance repair, index-delta maintenance and the delta
  join do the work; the cache and the full join sit idle.
- ``query_hot``: repeated queries over top-1% pairs (400-1000 paths each)
  whose indexes fit in the 4 MiB cache, so every timed query is a hit.
  The full join, encoding and reply bytes do the work; the control on
  which a cache-admission change must show no change.
- ``query_churn``: zipf-skewed (a=1.2) queries over top-1% pairs whose
  indexes total at least 4x the cache, plus 10% update round trips.
  Misses pay for construction, evictions happen, and every update
  repairs every cached entry.

``--trace 0`` prints the end-to-end metrics of an untraced run; the
server is set up three times and the median set-up time is reported.
Each op of the cycle gets the median of its round trips over the timed
cycles (see :func:`op_medians`); ``p50_ms``/``p99_ms`` are percentiles
of those and ``ops_per_s`` is the cycle's ops over their sum.  They
cover all of a workload's ops, because every metric must exist on every
workload (``monitor`` sends no queries and ``query_hot`` no updates);
the per-op-type p50/p99 with their sample counts, and the plain wall
clock rate, are in the provenance line printed before the result.
``--trace 1`` runs the workload untraced and then traced (span wrappers
installed from ``spans.py`` in the server and the client) and prints the
per-layer metrics of ``layers.py``.  Every run checks a sample of each
cycle's replies against the brute-force oracle, the server counters per
cycle, and a clean SIGINT shutdown.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def op_medians(result) -> List[float]:
    """Each cycle op's median round trip over the timed cycles.

    Every timed cycle replays the same ops against the same server state
    (the per-cycle counters show it), so an op's repetitions differ only
    by interference from outside the program; on a shared 2-vCPU virtual
    machine the hypervisor was measured stealing 3-20% of the CPU in
    bursts.  The median keeps what an op always costs and drops a burst
    that hits a minority of its repetitions.
    """
    return [statistics.median(column) for column in zip(*result.rounds)]


def latency_summary(plan, result) -> Dict[str, Any]:
    """p50/p99 (ms) of the per-op medians by op type, with the round
    trips behind each; a p99 only where 1000 round trips leave ten
    beyond it."""
    from harness import MIN_TAIL_SAMPLES

    medians = op_medians(result)
    summary: Dict[str, Any] = {}
    for kind in ("query", "update", "all"):
        values = [m for m, op in zip(medians, plan.cycle)
                  if kind in ("all", op[0])]
        if not values:
            continue
        samples = len(values) * len(result.rounds)
        summary[f"{kind}_samples"] = samples
        summary[f"{kind}_distinct_ops"] = len(values)
        summary[f"{kind}_p50_ms"] = percentile(values, 0.50) * 1e3
        if samples >= MIN_TAIL_SAMPLES:
            summary[f"{kind}_p99_ms"] = percentile(values, 0.99) * 1e3
    return summary


def end_to_end(result) -> Dict[str, Dict[str, Any]]:
    medians = op_medians(result)
    values = {
        "setup_s": (result.setup_s, "s"),
        "ops_per_s": (len(medians) / sum(medians), "ops/s"),
        "p50_ms": (percentile(medians, 0.50) * 1e3, "ms"),
        "p99_ms": (percentile(medians, 0.99) * 1e3, "ms"),
        "server_rss_mb": (result.max_rss_kb / 1024, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def steady(result) -> bool:
    """Whether every timed cycle moved the counters identically."""
    return all(c == result.cycle_counters[0] for c in result.cycle_counters)


def provenance(plan, result, label: str) -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # the package runs without numpy too
        numpy_version = None
    return {
        "run": label,
        "workload": plan.workload,
        "seed": plan.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        **plan.provenance,
        "setup_s": result.setup_s,
        "listening_s": result.listening_s,
        "cycles": len(result.windows),
        "cycle_s": [round(end - start, 4) for start, end in result.windows],
        "timed_s": result.timed_s,
        "wall_ops_per_s": result.ops / result.timed_s,
        "latency": latency_summary(plan, result),
        "error_share": result.failed / result.attempted,
        "errors": result.errors,
        "counters_after_setup": result.setup_counters,
        "counters_first_cycle": result.cycle_counters[0],
        "counters_steady": steady(result),
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("monitor", "query_hot", "query_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import traffic

    plan = traffic.build(args.workload, args.seed)
    scratch = ROOT / f".servebench-{os.getpid()}"
    scratch.mkdir()
    try:
        if args.trace:
            import layers
            import spans

            untraced = harness.run(plan, ROOT, scratch, args.seconds,
                                    "untraced")
            client = spans.Recorder()
            spans.install_client_wrappers(client)
            spans_file = scratch / "server.spans"
            traced = harness.run(plan, ROOT, scratch, args.seconds, "traced",
                                 spans_file=spans_file)
            runs = [("untraced", untraced), ("traced", traced)]
            common = min(len(traced.cycle_counters),
                         len(untraced.cycle_counters))
            if (traced.setup_counters != untraced.setup_counters
                    or traced.cycle_counters[:common]
                    != untraced.cycle_counters[:common]):
                traced.failed += 1
                traced.errors.append("counters differ between runs of one seed")
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in layers.per_layer(
                    plan, spans.Spans.read(str(spans_file)), client.spans(),
                    traced, untraced,
                ).items()
            }
        else:
            result = harness.run(plan, ROOT, scratch, args.seconds,
                                 "untraced", setups=SETUPS)
            runs = [("untraced", result)]
            metrics = end_to_end(result)
    except (harness.RunFailure, OSError) as exc:
        # A dead server, a dropped connection or a bad shutdown.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for label, result in runs:
        print(json.dumps({"provenance": provenance(plan, result, label)},
                         sort_keys=True, default=str))
    attempted = sum(r.attempted for _, r in runs)
    failed = sum(r.failed for _, r in runs)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
