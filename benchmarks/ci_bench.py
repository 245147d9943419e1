"""Deterministic CI micro-benchmark: the regression gate's input.

Runs a small fixed-seed workload (no pytest, no knobs beyond the CLI)
and writes one ``repro-bench/1`` result covering the three throughput
axes the paper cares about:

- ``construction_s`` — mean CPE_startup index construction time;
- ``enumeration_paths_per_s`` — full-enumeration output throughput on
  an index whose join program is already built (warm);
- ``enumeration_cold_paths_per_s`` — the same for the first join on a
  freshly built index, which builds the program (cold);
- ``update_throughput_per_s`` — maintained updates applied per second.

Usage::

    python benchmarks/ci_bench.py [--out FILE] [--dated-out FILE]
                                  [--repeats N]

Defaults write ``benchmarks/results/ci_bench.json`` plus a dated
``benchmarks/results/BENCH_<YYYY-MM-DD>.json`` (the CI artifact).
Dated copies no longer land at the repo root — that location is
gitignored to keep strays out of commits.  Compare two runs with
``benchmarks/check_regression.py``.
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

from repro.core.construction import build_index  # noqa: E402
from repro.core.enumeration import enumerate_full_list  # noqa: E402
from repro.core.enumerator import CpeEnumerator  # noqa: E402
from repro.graph import datasets  # noqa: E402
from repro.service.cache import (  # noqa: E402
    IndexCache,
    estimated_entry_bytes,
)
from repro.workloads.queries import hot_queries  # noqa: E402
from repro.workloads.updates import relevant_update_stream  # noqa: E402

DATASET = "WG"
SCALE = 0.25
K = 6
SEED = 7
NUM_QUERIES = 3
NUM_INSERTIONS = 15
NUM_DELETIONS = 15

#: Inner loop per timed sample — amortizes timer noise on the sub-ms
#: enumeration stage (for the cold join: that many fresh indexes, each
#: joined once).
ENUM_ITERATIONS = 20

#: Answers-only cache stream: keys are every source x target of
#: CACHE_PAIRS hot pairs (so misses share endpoints with live entries),
#: the budget is a third of their summed entry sizes (so entries are
#: evicted), and one round-trip update follows every
#: CACHE_UPDATE_EVERY queries.
CACHE_PAIRS = 4
CACHE_QUERIES = 48
CACHE_UPDATE_EVERY = 2
CACHE_UPDATES = 6


def run_ci_bench(repeats: int = 3) -> dict:
    """The fixed-seed measurement; returns a ``repro-bench/1`` payload.

    Each stage takes the *best* of ``repeats`` samples (minimum time /
    maximum rate): best-of is the noise-robust estimator for a gate that
    must not flag scheduler jitter as a regression.
    """
    graph = datasets.load(DATASET, SCALE)
    queries = hot_queries(graph, NUM_QUERIES, K, 0.10, seed=SEED)

    construction_times = []
    enumeration_rates = []
    cold_rates = []
    for query in queries:
        build_index(graph, query.s, query.t, query.k)  # warm-up
        enumerator = CpeEnumerator(graph, query.s, query.t, query.k)
        num_paths = len(enumerator.startup())  # warm-up + path count
        for _ in range(repeats):
            start = time.perf_counter()
            build_index(graph, query.s, query.t, query.k)
            construction_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            for _ in range(ENUM_ITERATIONS):
                enumerator.startup()
            elapsed = time.perf_counter() - start
            if num_paths and elapsed > 0:
                enumeration_rates.append(
                    ENUM_ITERATIONS * num_paths / elapsed
                )
            fresh = [
                build_index(graph, query.s, query.t, query.k).index
                for _ in range(ENUM_ITERATIONS)
            ]
            start = time.perf_counter()
            for index in fresh:
                enumerate_full_list(index)
            elapsed = time.perf_counter() - start
            if num_paths and elapsed > 0:
                cold_rates.append(ENUM_ITERATIONS * num_paths / elapsed)

    # Update stage: one warm index, each sample replays the stream
    # forward then inverted, returning the graph to its start state —
    # every sample therefore does identical, deterministic work.
    first = queries[0]
    working = graph.copy()
    enumerator = CpeEnumerator(working, first.s, first.t, first.k)
    enumerator.startup()
    stream = relevant_update_stream(
        working, first.s, first.t, first.k,
        NUM_INSERTIONS, NUM_DELETIONS, seed=SEED,
    )
    round_trip = list(stream) + [u.inverted() for u in reversed(stream)]

    def replay() -> int:
        applied = 0
        for update in round_trip:
            if working.apply_update(update):
                enumerator.observe(update)
                applied += 1
        return applied

    replay()  # warm-up
    update_rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        applied = replay()
        elapsed = time.perf_counter() - start
        if applied and elapsed > 0:
            update_rates.append(applied / elapsed)

    def best_time(values):
        return min(values) if values else 0.0

    def best_rate(values):
        return max(values) if values else 0.0

    return {
        "schema": "repro-bench/1",
        "benchmark": "ci_bench",
        "config": {
            "dataset": DATASET,
            "scale": SCALE,
            "k": K,
            "seed": SEED,
            "num_queries": NUM_QUERIES,
            "num_insertions": NUM_INSERTIONS,
            "num_deletions": NUM_DELETIONS,
            "repeats": repeats,
            "enum_iterations": ENUM_ITERATIONS,
        },
        "metrics": {
            "construction_s": {
                "value": best_time(construction_times),
                "unit": "seconds",
                "direction": "lower",
            },
            "enumeration_paths_per_s": {
                "value": best_rate(enumeration_rates),
                "unit": "paths/s",
                "direction": "higher",
            },
            "enumeration_cold_paths_per_s": {
                "value": best_rate(cold_rates),
                "unit": "paths/s",
                "direction": "higher",
            },
            "update_throughput_per_s": {
                "value": best_rate(update_rates),
                "unit": "updates/s",
                "direction": "higher",
            },
        },
    }


def run_cache_answers(graph) -> dict:
    """A fixed-seed query stream through :class:`IndexCache`.

    Queries draw from keys that share endpoints, so misses build from
    live entries' distance maps, under a budget that forces evictions,
    with round-trip updates interleaved so every cached entry is
    repaired.  Returns each answer (key, cache outcome, paths in
    emission order) and the final cache counters.
    """
    working = graph.copy()
    pairs = hot_queries(working, CACHE_PAIRS, K, 0.10, seed=SEED + 1)
    sources = list(dict.fromkeys(q.s for q in pairs))
    targets = list(dict.fromkeys(q.t for q in pairs))
    keys = [(s, t, K) for s in sources for t in targets if s != t]
    total = sum(
        estimated_entry_bytes(CpeEnumerator(working, *key)) for key in keys
    )
    cache = IndexCache(working, budget_bytes=total // 3)
    first = pairs[0]
    stream = relevant_update_stream(
        working, first.s, first.t, first.k,
        CACHE_UPDATES, CACHE_UPDATES, seed=SEED,
    )
    updates = list(stream) + [u.inverted() for u in reversed(stream)]
    rng = random.Random(SEED)
    answers = []
    applied = 0
    for i in range(CACHE_QUERIES):
        key = rng.choice(keys)
        lookup = cache.get_or_build(*key)
        answers.append(
            {
                "key": list(key),
                "outcome": lookup.outcome,
                "paths": [list(p) for p in lookup.enumerator.startup()],
            }
        )
        if i % CACHE_UPDATE_EVERY == CACHE_UPDATE_EVERY - 1 and updates:
            update = updates.pop(0)
            if working.apply_update(update):
                cache.observe_all(update)
                applied += 1
    return {
        "answers": answers,
        "updates_applied": applied,
        "counters": cache.stats().as_dict(),
    }


def run_ci_answers() -> dict:
    """The workload's *answers* (not timings) as a canonical payload.

    Runs the same fixed-seed workload as :func:`run_ci_bench` and
    returns every enumerated path: the startup answer per query, the
    per-update applied count over the forward update stream, and the
    post-stream answer for the maintained query — plus the cache stream
    of :func:`run_cache_answers`.  Two runs that claim to be
    equivalent (e.g. the same commit under two Python versions) must
    produce byte-identical ``--answers-out`` files — paths, order,
    cache outcomes and counters all.
    """
    graph = datasets.load(DATASET, SCALE)
    queries = hot_queries(graph, NUM_QUERIES, K, 0.10, seed=SEED)
    startup_answers = []
    for query in queries:
        enumerator = CpeEnumerator(graph, query.s, query.t, query.k)
        startup_answers.append(
            {
                "query": {"s": query.s, "t": query.t, "k": query.k},
                "paths": [list(p) for p in enumerator.startup()],
            }
        )
    first = queries[0]
    working = graph.copy()
    enumerator = CpeEnumerator(working, first.s, first.t, first.k)
    enumerator.startup()
    stream = relevant_update_stream(
        working, first.s, first.t, first.k,
        NUM_INSERTIONS, NUM_DELETIONS, seed=SEED,
    )
    applied = 0
    for update in stream:
        if working.apply_update(update):
            enumerator.observe(update)
            applied += 1
    return {
        "schema": "repro-bench-answers/1",
        "benchmark": "ci_bench",
        "startup": startup_answers,
        "updates_applied": applied,
        "post_update_paths": [list(p) for p in enumerator.startup()],
        "cache": run_cache_answers(graph),
    }


def _write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path}")


def main(argv=None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(ROOT / "benchmarks" / "results" / "ci_bench.json")
    )
    parser.add_argument(
        "--dated-out", "--root-out", dest="dated_out", default=None,
        help="dated copy (default benchmarks/results/BENCH_<today>.json; "
             "'none' to skip; --root-out is the legacy spelling)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--answers-out", default=None,
        help="also write the workload's enumerated answers (canonical "
             "JSON) for byte-identity comparisons across builds",
    )
    args = parser.parse_args(argv)

    if args.answers_out:
        answers = run_ci_answers()
        _write(Path(args.answers_out), answers)

    payload = run_ci_bench(repeats=args.repeats)
    for name, entry in sorted(payload["metrics"].items()):
        print(f"{name:28s} {entry['value']:12.4f} {entry['unit']}")
    _write(Path(args.out), payload)
    dated_out = args.dated_out
    if dated_out != "none":
        if dated_out is None:
            stamp = time.strftime("%Y-%m-%d")
            dated_out = str(
                ROOT / "benchmarks" / "results" / f"BENCH_{stamp}.json"
            )
        _write(Path(dated_out), payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "run_ci_bench",
    "run_ci_answers",
    "main",
]
