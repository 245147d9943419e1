"""Batch-query benchmark: shared construction vs sequential execution.

Models the ad-hoc side of a hot-spot workload: a small cross-product
pool of hub pairs (a few sources around one popular vertex x a few
distant targets), zipf-skewed popularity, and a cold cache (budget too
small to retain anything), so every query pays its own ``CPE_startup``
construction in sequential mode.  The batch mode answers the same
fixed-seed query stream through ``batch_query``: members sharing a
source or target hub reuse one BFS per batch and exact duplicates
reuse one enumeration, so per-query construction cost falls as the
batch size grows while the answers stay byte-identical (asserted
during the run):

- ``batch_query_per_s.sequential`` — one ``query`` op per triple;
- ``batch_query_per_s.size_N`` — the same triples sent as
  ``batch_query`` chunks of N (N in 4, 16);
- ``batch_speedup_16_vs_sequential`` — the headline ratio: how much
  throughput shared construction buys at batch size 16.

Usage::

    python benchmarks/bench_batch.py [--out FILE] [--repeats N]
        [--queries N]

Writes ``benchmarks/results/bench_batch.json`` (repro-bench/1) and a
human-readable ``bench_batch.txt``.  Compare against the committed
baseline with ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.distance import DistanceMap  # noqa: E402
from repro.graph import datasets  # noqa: E402
from repro.service.engine import PathQueryEngine  # noqa: E402
from repro.workloads.queries import hot_queries  # noqa: E402

DATASET = "WG"
SCALE = 0.25
K = 6
SEED = 7
NUM_QUERIES = 64
ZIPF_A = 1.1
BATCH_SIZES = (4, 16)
NUM_SOURCES = 4
NUM_TARGETS = 6
#: A budget no index fits in: every entry bypasses, the cache stays cold.
COLD_BUDGET_BYTES = 1


def _hub_triples(graph):
    """Fixed-seed zipf-skewed triples over a hub cross-product pool.

    Sources sit within one hop of a hot vertex and targets at BFS
    distance >= 3 from it, so every pair in the pool shares its source
    hub with :data:`NUM_TARGETS` - 1 other pairs and its target hub with
    :data:`NUM_SOURCES` - 1 — the shape grouping thrives on.
    """
    hub = hot_queries(graph, 1, K, 0.10, seed=SEED)[0].s
    # The reference BFS lists vertices in discovery order, which is
    # deterministic, so these slices are too.
    dist = DistanceMap(graph, hub, horizon=K).recomputed().items()
    sources = [v for v, d in dist if d <= 1][:NUM_SOURCES]
    targets = [
        v for v, d in dist if d >= 3 and v not in sources
    ][:NUM_TARGETS]
    if len(sources) < 2 or len(targets) < 2:
        raise RuntimeError(f"hub {hub!r} has too small a neighbourhood")
    pairs = [(s, t) for s in sources for t in targets]
    weights = [(i + 1) ** -ZIPF_A for i in range(len(pairs))]
    rng = random.Random(SEED)
    return [
        rng.choices(pairs, weights=weights)[0] + (K,)
        for _ in range(NUM_QUERIES)
    ]


def _measure_sequential(graph, triples, repeats):
    """Best-of-``repeats`` queries/s via one ``query`` op per triple."""
    engine = PathQueryEngine(graph, cache_budget_bytes=COLD_BUDGET_BYTES)
    answers = [
        engine.handle("query", {"s": s, "t": t, "k": k}) for s, t, k in triples
    ]
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for s, t, k in triples:
            engine.handle("query", {"s": s, "t": t, "k": k})
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, len(triples) / elapsed)
    return best, answers


def _measure_batched(graph, triples, batch_size, repeats, expected):
    """Best-of-``repeats`` queries/s via ``batch_query`` chunks."""
    engine = PathQueryEngine(graph, cache_budget_bytes=COLD_BUDGET_BYTES)
    chunks = [
        triples[i:i + batch_size] for i in range(0, len(triples), batch_size)
    ]
    answers = []
    for chunk in chunks:  # warm-up doubles as the equivalence gate
        out = engine.handle(
            "batch_query", {"queries": [list(t) for t in chunk]}
        )
        answers.extend(out["results"])
    if answers != expected:
        raise RuntimeError(
            f"batch size {batch_size}: answers diverge from sequential"
        )
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for chunk in chunks:
            engine.handle(
                "batch_query", {"queries": [list(t) for t in chunk]}
            )
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, len(triples) / elapsed)
    return best, engine.batcher.stats()


def run_bench_batch(repeats: int = 3, num_queries: int = NUM_QUERIES) -> dict:
    """The fixed-seed measurement; returns a ``repro-bench/1`` payload."""
    graph = datasets.load(DATASET, SCALE)
    triples = _hub_triples(graph)[:num_queries]

    metrics = {}
    lines = [
        f"Batch-query benchmark — {DATASET} scale {SCALE}, "
        f"{len(triples)} queries, k={K}, zipf {ZIPF_A}, cold cache",
    ]

    sequential_rate, expected = _measure_sequential(graph, triples, repeats)
    metrics["batch_query_per_s.sequential"] = {
        "value": sequential_rate, "unit": "queries/s", "direction": "higher",
    }
    lines.append(f"sequential            {sequential_rate:10.1f} queries/s")

    by_size = {}
    for size in BATCH_SIZES:
        rate, stats = _measure_batched(
            graph, triples, size, repeats, expected
        )
        by_size[size] = rate
        metrics[f"batch_query_per_s.size_{size}"] = {
            "value": rate, "unit": "queries/s", "direction": "higher",
        }
        lines.append(
            f"batch size {size:<2d}         {rate:10.1f} queries/s"
            f"   (BFS saved {stats['bfs_saved']}, "
            f"memo {stats['memo_answers']})"
        )

    speedup = (
        by_size[BATCH_SIZES[-1]] / sequential_rate if sequential_rate else 0.0
    )
    metrics["batch_speedup_16_vs_sequential"] = {
        "value": speedup, "unit": "x", "direction": "higher",
    }
    lines.append(f"speedup 16 vs sequential {speedup:7.2f}x")

    return {
        "schema": "repro-bench/1",
        "benchmark": "bench_batch",
        "config": {
            "dataset": DATASET,
            "scale": SCALE,
            "k": K,
            "seed": SEED,
            "num_queries": len(triples),
            "num_sources": NUM_SOURCES,
            "num_targets": NUM_TARGETS,
            "zipf_a": ZIPF_A,
            "batch_sizes": list(BATCH_SIZES),
            "cache_budget_bytes": COLD_BUDGET_BYTES,
            "repeats": repeats,
        },
        "metrics": metrics,
        "text": "\n".join(lines),
    }


def main(argv=None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(ROOT / "benchmarks" / "results" / "bench_batch.json"),
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--queries", type=int, default=NUM_QUERIES)
    args = parser.parse_args(argv)

    payload = run_bench_batch(repeats=args.repeats, num_queries=args.queries)
    text = payload.pop("text")
    print(text)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    out.with_suffix(".txt").write_text(text + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "run_bench_batch",
    "main",
]
