"""Command-line interface: ``python -m repro <command> ...``.

Commands:

- ``query DATASET S T K`` — run one k-st query (CPE_startup) and print
  the paths (or just the count with ``--count``);
- ``stats DATASET`` — Table I statistics for one dataset analogue;
- ``experiment NAME`` — run one experiment driver (``table1``, ``fig6``
  … ``fig12``, or ``all``) and print its table;
- ``datasets`` — list the registered dataset analogues;
- ``serve`` — run the path-query service (newline-delimited JSON over
  TCP; see :mod:`repro.service`); ``--metrics`` turns on the
  :mod:`repro.obs` instrumentation and the ``metrics`` protocol op
  then serves live JSON/Prometheus dumps; ``--tracing`` captures
  spans as a Chrome trace (``trace`` op), the flight recorder and
  time-series ring run by default (``--flight-window`` /
  ``--history-interval``), a burst of deadline misses or ``SIGUSR2``
  dumps a ``repro-flight/1`` bundle;
- ``flight-dump`` — pull a ``repro-flight/1`` bundle (the server's last
  seconds of spans, events, metrics and time-series) from a running
  server and write it to a file;
- ``bench-serve`` — load-test an in-process server and report
  throughput and p50/p99 latency;
- ``profile`` — run a small construction/enumeration/maintenance
  workload with :mod:`repro.obs` enabled and print the per-stage cost
  breakdown (see docs/OBSERVABILITY.md); ``--format json`` emits the
  machine-readable ``repro-bench/1`` payload instead;
- ``explain`` — per-query EXPLAIN/ANALYZE (:mod:`repro.obs.explain`):
  dynamic-cut decisions, Opt. 1 prune counters, bucket sizes and
  join-pair cardinalities, as text, JSON, or Chrome trace-event JSON
  (``--format trace``, loadable in ``chrome://tracing`` / Perfetto);
- ``top`` — plain-terminal live dashboard for a running server: QPS,
  p95 latency, cache hit rate, in-flight requests, recent events,
  time-series sparklines (``history`` op), and a stable-key one-shot
  snapshot via ``--once --format json``;
- ``lint`` — run the project-specific static analysis
  (:mod:`repro.analysis`, rules R001–R007; see docs/ANALYSIS.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.common import ExperimentConfig


def _experiment_modules():
    from repro.experiments import (
        ablation,
        csm_variants,
        density_sweep,
        throughput,
        fig6_startup,
        fig7_update,
        fig8_insdel,
        fig9_vary_k,
        fig10_hot,
        fig11_scalability,
        fig12_memory,
        table1,
    )

    return {
        "table1": table1,
        "fig6": fig6_startup,
        "fig7": fig7_update,
        "fig8": fig8_insdel,
        "fig9": fig9_vary_k,
        "fig10": fig10_hot,
        "fig11": fig11_scalability,
        "fig12": fig12_memory,
        "ablation": ablation,
        "throughput": throughput,
        "density": density_sweep,
        "csm": csm_variants,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hop-constrained s-t simple path enumeration on dynamic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="run one k-st query on a dataset analogue")
    q.add_argument("dataset")
    q.add_argument("s", type=int)
    q.add_argument("t", type=int)
    q.add_argument("k", type=int)
    q.add_argument("--scale", type=float, default=0.25)
    q.add_argument("--count", action="store_true", help="print only |P|")

    st = sub.add_parser("stats", help="Table I statistics for one dataset")
    st.add_argument("dataset")
    st.add_argument("--scale", type=float, default=0.25)

    ex = sub.add_parser("experiment", help="run an experiment driver")
    ex.add_argument("name", help="table1, fig6..fig12, or all")
    ex.add_argument("--scale", type=float, default=None)
    ex.add_argument("--queries", type=int, default=None)
    ex.add_argument("--updates", type=int, default=None)
    ex.add_argument("--seed", type=int, default=None)
    ex.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    ex.add_argument(
        "--save", metavar="DIR", default=None,
        help="also write each table to DIR/<experiment>.txt",
    )

    sub.add_parser("datasets", help="list registered dataset analogues")

    gw = sub.add_parser(
        "gen-workload",
        help="write a result-relevant update stream for a query to a file",
    )
    gw.add_argument("dataset")
    gw.add_argument("s", type=int)
    gw.add_argument("t", type=int)
    gw.add_argument("k", type=int)
    gw.add_argument("output")
    gw.add_argument("--insertions", type=int, default=100)
    gw.add_argument("--deletions", type=int, default=100)
    gw.add_argument("--scale", type=float, default=0.25)
    gw.add_argument("--seed", type=int, default=7)

    mo = sub.add_parser(
        "monitor",
        help="replay an update stream against one or more watched pairs",
    )
    mo.add_argument("dataset")
    mo.add_argument("stream", help="update stream file (+/- u v lines)")
    mo.add_argument(
        "--pair", action="append", required=True, metavar="S:T",
        help="watched pair, repeatable (e.g. --pair 3:42)",
    )
    mo.add_argument("--k", type=int, default=6)
    mo.add_argument("--scale", type=float, default=0.25)
    mo.add_argument("--verbose", action="store_true",
                    help="print every changed path")

    rp = sub.add_parser(
        "report",
        help="build a markdown report from archived experiment CSVs",
    )
    rp.add_argument("directory", help="directory with <experiment>.csv files")
    rp.add_argument("output", nargs="?", help="output .md (default: stdout)")

    vf = sub.add_parser(
        "verify",
        help="audit a maintained index against recomputation after a stream",
    )
    vf.add_argument("dataset")
    vf.add_argument("s", type=int)
    vf.add_argument("t", type=int)
    vf.add_argument("k", type=int)
    vf.add_argument("--stream", help="update stream file to apply first")
    vf.add_argument("--scale", type=float, default=0.25)

    sv = sub.add_parser(
        "serve",
        help="serve path queries over TCP (newline-delimited JSON)",
    )
    sv.add_argument("dataset")
    sv.add_argument("--scale", type=float, default=0.25)
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=7471)
    sv.add_argument("--k", type=int, default=6,
                    help="default hop constraint for watch requests")
    sv.add_argument("--capacity", type=int, default=64,
                    help="admission-control bound on in-flight requests")
    sv.add_argument("--cache-budget", type=int, default=4 << 20,
                    help="warm-index cache budget in bytes; charges each "
                         "entry's partial path index only, not its two "
                         "distance maps (often several times larger)")
    sv.add_argument(
        "--watch", action="append", default=[], metavar="S:T",
        help="pre-register a watched pair, repeatable (e.g. --watch 3:42)",
    )
    sv.add_argument(
        "--metrics", action="store_true",
        help="enable repro.obs instrumentation; clients can poll the "
             "'metrics' op for JSON or Prometheus dumps",
    )
    sv.add_argument(
        "--events", action="store_true",
        help="enable the structured event log; clients can poll the "
             "'events' op (and 'repro top' shows the tail)",
    )
    sv.add_argument(
        "--tracing", action="store_true",
        help="capture spans (poll the 'trace' op for Chrome trace JSON)",
    )
    sv.add_argument(
        "--flight-window", type=float, default=30.0, metavar="S",
        help="flight-recorder window in seconds — the last S seconds "
             "of spans/events/metrics are dumpable on deadline "
             "bursts, SIGUSR2, the 'flight' op, or "
             "'repro flight-dump' (0 disables; default: 30)",
    )
    sv.add_argument(
        "--flight-dir", default=".", metavar="DIR",
        help="directory spontaneous flight dumps are written to "
             "(default: current directory)",
    )
    sv.add_argument(
        "--history-interval", type=float, default=1.0, metavar="S",
        help="metrics time-series sampling tick in seconds, behind "
             "the 'history' op and 'repro top' sparklines "
             "(0 disables; default: 1)",
    )

    fd = sub.add_parser(
        "flight-dump",
        help="pull a repro-flight/1 bundle from a running server",
    )
    fd.add_argument("--host", default="127.0.0.1")
    fd.add_argument("--port", type=int, default=7471)
    fd.add_argument("--out", metavar="FILE", default=None,
                    help="output file (default: repro-flight-<reason>.json)")
    fd.add_argument("--reason", default="manual",
                    help="reason recorded in the bundle (default: manual)")

    bs = sub.add_parser(
        "bench-serve",
        help="load-test an in-process server; throughput and p50/p99",
    )
    bs.add_argument("dataset")
    bs.add_argument("--requests", type=int, default=1000)
    bs.add_argument("--scale", type=float, default=0.25)
    bs.add_argument("--k", type=int, default=6)
    bs.add_argument("--update-fraction", type=float, default=0.2)
    bs.add_argument("--pairs", type=int, default=8,
                    help="distinct query pairs in the traffic mix")
    bs.add_argument("--watch", type=int, default=2,
                    help="how many of the pairs to pre-watch on the server")
    bs.add_argument("--capacity", type=int, default=64)
    bs.add_argument("--cache-budget", type=int, default=4 << 20)
    bs.add_argument("--deadline-ms", type=float, default=None,
                    help="per-request deadline passed with every request")
    bs.add_argument(
        "--zipf", type=float, default=None, metavar="A",
        help="zipf-skew query-pair popularity with exponent A "
             "(hot-pair traffic); default: uniform",
    )
    bs.add_argument("--seed", type=int, default=7)
    bs.add_argument("--save", metavar="FILE", default=None,
                    help="also write the JSON summary to FILE")

    pf = sub.add_parser(
        "profile",
        help="per-stage cost breakdown (construction/enumeration/"
             "maintenance) via repro.obs",
    )
    pf.add_argument("dataset")
    pf.add_argument("--scale", type=float, default=0.25)
    pf.add_argument("--k", type=int, default=6)
    pf.add_argument("--queries", type=int, default=3,
                    help="how many hot query pairs to build and enumerate")
    pf.add_argument("--updates", type=int, default=40,
                    help="result-relevant updates replayed on the first pair")
    pf.add_argument("--seed", type=int, default=7)
    pf.add_argument("--json", action="store_true",
                    help="emit the raw metrics snapshot as JSON")
    pf.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="'json' emits the repro-bench/1 per-stage payload "
             "(default: text table)",
    )

    xp = sub.add_parser(
        "explain",
        help="EXPLAIN/ANALYZE one query: cut decisions, prune counters, "
             "join cardinalities",
    )
    xp.add_argument("dataset")
    xp.add_argument("s", type=int, nargs="?", default=None,
                    help="source vertex (default: auto-pick a hot pair)")
    xp.add_argument("t", type=int, nargs="?", default=None,
                    help="target vertex (default: auto-pick a hot pair)")
    xp.add_argument("k", type=int, nargs="?", default=6,
                    help="hop constraint (default: 6)")
    xp.add_argument("--scale", type=float, default=0.25)
    xp.add_argument("--seed", type=int, default=7,
                    help="seed for the auto-picked query pair")
    xp.add_argument("--analyze", action="store_true",
                    help="run the enumeration and report measured "
                         "probe/emit cardinalities")
    xp.add_argument(
        "--format", choices=("text", "json", "trace"), default="text",
        help="'trace' emits Chrome trace-event JSON for "
             "chrome://tracing / Perfetto",
    )
    xp.add_argument("--out", metavar="FILE", default=None,
                    help="write the output to FILE instead of stdout")

    tp = sub.add_parser(
        "top",
        help="live dashboard for a running server (QPS, p95, cache, events)",
    )
    tp.add_argument("--host", default="127.0.0.1")
    tp.add_argument("--port", type=int, default=7471)
    tp.add_argument("--interval", type=float, default=2.0,
                    help="seconds between polls (default: 2)")
    tp.add_argument("--iterations", type=int, default=0,
                    help="stop after N refreshes (default: run until Ctrl-C)")
    tp.add_argument("--events", type=int, default=8,
                    help="recent events to show (default: 8)")
    tp.add_argument("--no-clear", action="store_true",
                    help="append refreshes instead of clearing the screen")
    tp.add_argument("--once", action="store_true",
                    help="one refresh, no screen clear, then exit")
    tp.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="'json' emits one machine-readable snapshot with stable "
             "key order (implies --once)",
    )

    ln = sub.add_parser(
        "lint",
        help="run the project-specific static analysis "
             "(rules R001-R012, W001)",
    )
    ln.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: ./src)",
    )
    ln.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    ln.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule codes to run (e.g. R001,R003)",
    )
    ln.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    ln.add_argument(
        "--timings", action="store_true",
        help="show elapsed time even under REPRO_LINT_STABLE=1",
    )
    ln.add_argument(
        "--no-unused-noqa", action="store_true",
        help="skip W001 (stale # repro: noqa[RULE] detection)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "gen-workload":
        return _cmd_gen_workload(args)
    if args.command == "monitor":
        return _cmd_monitor(args)
    if args.command == "report":
        from repro.experiments.report import main as report_main

        argv_tail = [args.directory]
        if args.output:
            argv_tail.append(args.output)
        return report_main(argv_tail)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "flight-dump":
        return _cmd_flight_dump(args)
    if args.command == "bench-serve":
        return _cmd_bench_serve(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "lint":
        return _cmd_lint(args)
    return _cmd_experiment(args)


def _parse_pairs(raw_pairs):
    pairs = []
    for raw in raw_pairs:
        try:
            s_text, t_text = raw.split(":", 1)
            pairs.append((int(s_text), int(t_text)))
        except ValueError:
            raise ValueError(f"bad pair {raw!r}, expected S:T")
    return pairs


def _cmd_serve(args) -> int:
    import asyncio
    import json
    import signal
    from pathlib import Path

    from repro.graph import datasets
    from repro.service.engine import PathQueryEngine
    from repro.service.server import PathQueryServer

    try:
        pairs = _parse_pairs(args.watch)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.metrics:
        from repro import obs

        obs.enable()
        print("metrics: repro.obs enabled (poll the 'metrics' op)")
    if args.events:
        from repro.obs import events

        events.set_enabled(True)
        print("events: structured event log enabled (poll the 'events' op)")
    graph = datasets.load(args.dataset, args.scale)
    engine = PathQueryEngine(
        graph,
        default_k=args.k,
        cache_budget_bytes=args.cache_budget,
        tracing=args.tracing,
        flight_window=max(args.flight_window, 0.0),
        timeseries_interval=max(args.history_interval, 0.0),
    )
    flight_dir = Path(args.flight_dir)

    def _write_flight(reason: str, bundle: dict) -> None:
        flight_dir.mkdir(parents=True, exist_ok=True)
        target = flight_dir / f"repro-flight-{reason}.json"
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"flight: {reason} dump written to {target}")

    engine.on_flight_dump = _write_flight
    if args.tracing:
        print("tracing: span capture on (poll the 'trace' op for the "
              "Chrome trace)")
    if args.flight_window > 0:
        print(f"flight: recording the last {args.flight_window:g}s "
              f"(dumps to {flight_dir}; trigger via SIGUSR2, the "
              "'flight' op, or 'repro flight-dump')")
    if args.history_interval > 0:
        print(f"history: metrics sampled every {args.history_interval:g}s "
              "(poll the 'history' op)")
    for s, t in pairs:
        initial = engine.op_watch(s, t)
        print(f"watch ({s}, {t}): {initial['count']} initial paths")

    async def main() -> None:
        server = PathQueryServer(
            engine,
            host=args.host,
            port=args.port,
            capacity=args.capacity,
        )
        await server.start()
        if hasattr(signal, "SIGUSR2"):
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGUSR2, server.request_flight_dump, "sigusr2"
            )
        print(f"serving {args.dataset} (scale {args.scale}) on "
              f"{server.host}:{server.port} — Ctrl-C to stop")
        try:
            await server.serve_forever()
        finally:
            await server.shutdown()

    # On 3.11+ asyncio.run turns Ctrl-C into a task cancellation that
    # serve_forever absorbs, so main() may return without raising
    # KeyboardInterrupt; print the farewell on both paths.
    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        engine.close()
    print("\nshut down")
    return 0


def _cmd_flight_dump(args) -> int:
    import json

    from repro.obs.flight import validate_flight_bundle
    from repro.service.client import ServiceClient

    try:
        client = ServiceClient(args.host, args.port)
    except OSError as exc:
        print(f"error: cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    with client:
        result = client.flight(reason=args.reason)
    bundle = result.get("bundle", {})
    problems = validate_flight_bundle(bundle)
    if problems:
        for problem in problems:
            print(f"error: malformed bundle: {problem}", file=sys.stderr)
        return 1
    target = args.out or f"repro-flight-{args.reason}.json"
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)
        fh.write("\n")
    processes = bundle.get("processes", [])
    spans = sum(len(p.get("spans", [])) for p in processes)
    recorder = "on" if result.get("enabled") else "off"
    print(f"wrote {target}: {len(processes)} process records, "
          f"{spans} spans (recorder {recorder})")
    return 0


def _cmd_bench_serve(args) -> int:
    from repro.graph import datasets
    from repro.service.engine import PathQueryEngine
    from repro.service.loadgen import run_load
    from repro.service.server import serve_in_thread
    from repro.workloads.traffic import service_traffic

    graph = datasets.load(args.dataset, args.scale)
    ops = service_traffic(
        graph,
        args.requests,
        args.k,
        update_fraction=args.update_fraction,
        distinct_pairs=args.pairs,
        zipf_a=args.zipf,
        seed=args.seed,
    )
    engine = PathQueryEngine(
        graph,
        default_k=args.k,
        cache_budget_bytes=args.cache_budget,
    )
    watched = 0
    for op in ops:
        if watched >= args.watch:
            break
        if op[0] == "query" and (op[1], op[2]) not in engine.monitor.pairs():
            engine.op_watch(op[1], op[2], k=op[3])
            watched += 1
    handle = serve_in_thread(engine, capacity=args.capacity)
    try:
        report = run_load(
            handle.host,
            handle.port,
            ops,
            deadline_ms=args.deadline_ms,
        )
    finally:
        handle.stop()
    mode = f", zipf {args.zipf:g}" if args.zipf is not None else ""
    print(f"bench-serve {args.dataset} scale {args.scale}: "
          f"{len(ops)} requests "
          f"({sum(1 for op in ops if op[0] == 'update')} updates, "
          f"{watched} watched pairs{mode})")
    print(report.format())
    if args.save:
        import json

        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(report.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"summary written to {args.save}")
    return 0 if sum(report.errors.values()) == 0 else 1


def _cmd_profile(args) -> int:
    import json

    from repro import obs
    from repro.core.enumerator import CpeEnumerator
    from repro.graph import datasets
    from repro.workloads.queries import hot_queries
    from repro.workloads.updates import relevant_update_stream

    try:
        graph = datasets.load(args.dataset, args.scale)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    queries = hot_queries(graph, args.queries, args.k, seed=args.seed)
    if not queries:
        print("error: no connected query pairs found", file=sys.stderr)
        return 2
    previous = obs.set_enabled(True)
    obs.reset()
    try:
        total_paths = 0
        first_enumerator = None
        for query in queries:
            enumerator = CpeEnumerator(graph, query.s, query.t, query.k)
            total_paths += len(enumerator.startup())
            if first_enumerator is None:
                first_enumerator = enumerator
        # Replay result-relevant updates against the first pair so the
        # maintenance stages show up in the breakdown.
        first = queries[0]
        stream = relevant_update_stream(
            graph,
            first.s,
            first.t,
            first.k,
            num_insertions=args.updates - args.updates // 2,
            num_deletions=args.updates // 2,
            seed=args.seed,
        )
        for update in stream:
            if graph.apply_update(update):
                first_enumerator.observe(update)
        snapshot = obs.snapshot()
    finally:
        obs.set_enabled(previous)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    if args.format == "json":
        payload = _profile_bench_payload(args, snapshot, len(queries),
                                         len(stream), total_paths)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    title = (f"profile {args.dataset} scale {args.scale} k {args.k}: "
             f"{len(queries)} queries, {len(stream)} updates, "
             f"{total_paths} initial paths")
    print(obs.render_profile(snapshot, title=title))
    return 0


def _profile_bench_payload(args, snapshot, num_queries, num_updates,
                           total_paths) -> dict:
    """Shape a metrics snapshot as a ``repro-bench/1`` payload.

    One metric pair per ``*.seconds`` stage (total and p95), so the
    output is consumable by the same tooling as the CI benchmark
    results (see docs/OBSERVABILITY.md).
    """
    from repro.obs.report import stage_rows

    metrics = {}
    for stage, row in stage_rows(snapshot):
        key = stage.replace(".", "_")
        metrics[f"{key}_total_s"] = {
            "value": row.get("total", 0.0),
            "unit": "seconds",
            "direction": "lower",
        }
        metrics[f"{key}_p95_s"] = {
            "value": row.get("p95", 0.0),
            "unit": "seconds",
            "direction": "lower",
        }
    metrics["initial_paths"] = {
        "value": total_paths, "unit": "paths", "direction": "higher",
    }
    return {
        "schema": "repro-bench/1",
        "benchmark": "profile",
        "config": {
            "dataset": args.dataset,
            "scale": args.scale,
            "k": args.k,
            "queries": num_queries,
            "updates": num_updates,
            "seed": args.seed,
        },
        "metrics": metrics,
    }


def _cmd_explain(args) -> int:
    import json

    from repro import obs
    from repro.graph import datasets

    try:
        graph = datasets.load(args.dataset, args.scale)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if (args.s is None) != (args.t is None):
        print("error: give both s and t, or neither", file=sys.stderr)
        return 2
    s, t = args.s, args.t
    if s is None:
        from repro.workloads.queries import hot_queries

        picked = hot_queries(graph, 1, args.k, seed=args.seed)
        if not picked:
            print("error: no connected query pairs found", file=sys.stderr)
            return 2
        s, t = picked[0].s, picked[0].t
        print(f"# auto-picked query pair s={s} t={t} (seed {args.seed})",
              file=sys.stderr)
    elif not (graph.has_vertex(s) and graph.has_vertex(t)):
        print("error: s/t not in the graph", file=sys.stderr)
        return 2
    try:
        if args.format == "trace":
            # Spans only fire with obs enabled; the trace buffer needs
            # them for the "X" timeline rows under the explain instants.
            previous = obs.set_enabled(True)
            try:
                with obs.tracing() as buffer:
                    report = obs.explain_query(
                        graph, s, t, args.k, analyze=args.analyze
                    )
                payload = report.to_chrome_trace(buffer)
            finally:
                obs.set_enabled(previous)
            rendered = json.dumps(payload, indent=2, sort_keys=True)
        else:
            report = obs.explain_query(graph, s, t, args.k,
                                       analyze=args.analyze)
            if args.format == "json":
                rendered = json.dumps(
                    report.to_dict(), indent=2, sort_keys=True
                )
            else:
                rendered = report.render_text()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(f"wrote {args.out}")
    else:
        print(rendered)
    if args.analyze and report.record.invariant_ok() is False:
        print("error: join-pair emit total does not match the enumerated "
              "path count", file=sys.stderr)
        return 1
    return 0


def _counter_total(snapshot: dict, prefix: str) -> float:
    return sum(
        value for name, value in snapshot.get("counters", {}).items()
        if name.startswith(prefix)
    )


#: Eight-level bar glyphs for the ``repro top`` history sparklines.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _sparkline(values) -> str:
    """``values`` scaled onto the eight block glyphs (max = full bar)."""
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    scale = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[min(int(round(max(v, 0.0) / top * scale)), scale)]
        for v in values
    )


def _history_series(history, kind, name, field=""):
    """One value per retained sample for a metric in a ``history``
    snapshot (0.0 where the metric is missing), oldest first."""
    out = []
    for sample in history.get("samples", []):
        entry = sample.get(kind, {}).get(name)
        if entry is None:
            out.append(0.0)
        elif kind == "histograms":
            out.append(float(entry.get(field, 0.0)))
        else:
            out.append(float(entry))
    return out


def _render_history_lines(history_payload, width=60) -> list:
    """Sparkline rows for the dashboard, from the ``history`` op."""
    history = history_payload.get("history") or {}
    samples = history.get("samples", [])
    if not samples:
        return ["  history: no samples yet"]
    interval = history.get("interval", 0.0)
    rows = [
        ("req/tick", _history_series(history, "counters",
                                     "service.requests.query")),
        ("p95 ms", [v * 1000.0 for v in _history_series(
            history, "histograms", "service.op.query.seconds", "p95")]),
    ]
    span = interval * (len(samples) - 1)
    lines = [f"  history ({len(samples)} samples, {span:g}s window):"]
    for label, series in rows:
        series = series[-width:]
        latest = series[-1] if series else 0.0
        lines.append(f"    {label:<9s} {_sparkline(series)}  now {latest:g}")
    return lines


def _render_top_frame(address, iteration, interval, stats, snapshot,
                      event_payload, max_events, qps,
                      history_payload=None) -> str:
    """One dashboard refresh, as plain text (no curses, no ANSI)."""
    lines = [f"repro top — {address}   "
             f"refresh #{iteration} (every {interval:g}s)"]
    requests = _counter_total(snapshot, "service.requests.")
    errors = _counter_total(snapshot, "service.errors.")
    qps_text = f"{qps:.1f}" if qps is not None else "--"
    lines.append(f"  requests {requests:.0f} total   errors {errors:.0f}   "
                 f"qps {qps_text}")
    histogram = snapshot.get("histograms", {}).get("service.op.query.seconds")
    if histogram and histogram.get("count"):
        lines.append(
            f"  query latency  p50 {histogram['p50'] * 1000.0:.2f} ms   "
            f"p95 {histogram['p95'] * 1000.0:.2f} ms   "
            f"p99 {histogram['p99'] * 1000.0:.2f} ms   "
            f"({int(histogram['count'])} samples)"
        )
    else:
        lines.append("  query latency  (no samples yet)")
    cache = stats.get("cache", {})
    admission = stats.get("admission", {})
    lines.append(
        f"  cache hit rate {cache.get('hit_rate', 0.0) * 100.0:.1f}%   "
        f"entries {cache.get('entries', 0)}   "
        f"evictions {cache.get('evictions', 0)}"
    )
    lines.append(
        f"  in-flight {admission.get('in_flight', 0)}"
        f"/{admission.get('capacity', 0)}   "
        f"admitted {admission.get('admitted', 0)}   "
        f"rejected {admission.get('rejected_overload', 0)} overload / "
        f"{admission.get('rejected_shutdown', 0)} shutdown   "
        f"expired {admission.get('expired', 0)}"
    )
    graph = stats.get("graph", {})
    lines.append(
        f"  graph {graph.get('vertices', '?')} vertices / "
        f"{graph.get('edges', '?')} edges   "
        f"watched pairs {stats.get('watched_pairs', '?')}"
    )
    if history_payload is not None and history_payload.get("enabled"):
        lines.extend(_render_history_lines(history_payload))
    if event_payload.get("enabled"):
        tail = event_payload.get("events", [])[-max_events:]
        lines.append(f"  recent events ({event_payload.get('total_emitted', 0)}"
                     f" emitted, showing {len(tail)}):")
        for event in tail:
            extras = {
                key: value for key, value in event.items()
                if key not in ("seq", "ts", "kind", "corr_id")
            }
            detail = " ".join(f"{k}={extras[k]}" for k in sorted(extras))
            corr = event.get("corr_id", "-")
            lines.append(f"    #{event['seq']:<6d} {corr:>8s}  "
                         f"{event['kind']:<18s} {detail}")
    else:
        lines.append("  recent events: event log disabled on the server "
                     "(start it with --events)")
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import json
    import time

    from repro.service.client import ServiceClient

    once = args.once or args.format == "json"
    try:
        client = ServiceClient(args.host, args.port)
    except OSError as exc:
        print(f"error: cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    previous_requests = None
    previous_at = None
    iteration = 0
    try:
        with client:
            while True:
                iteration += 1
                stats = client.stats()
                metrics_payload = client.metrics()
                snapshot = metrics_payload.get("metrics", {})
                event_payload = client.events(limit=args.events)
                history_payload = client.history()
                now = time.monotonic()
                requests = _counter_total(snapshot, "service.requests.")
                qps = None
                if previous_requests is not None and now > previous_at:
                    qps = max(0.0, requests - previous_requests) / (
                        now - previous_at
                    )
                previous_requests, previous_at = requests, now
                if args.format == "json":
                    # One machine-readable snapshot; sort_keys makes the
                    # key order stable for scripted consumers.
                    payload = {
                        "address": f"{args.host}:{args.port}",
                        "stats": stats,
                        "metrics": metrics_payload,
                        "events": event_payload,
                        "history": history_payload,
                    }
                    print(json.dumps(payload, indent=2, sort_keys=True))
                else:
                    frame = _render_top_frame(
                        f"{args.host}:{args.port}", iteration, args.interval,
                        stats, snapshot, event_payload, args.events, qps,
                        history_payload=history_payload,
                    )
                    if (not once and not args.no_clear
                            and sys.stdout.isatty()):
                        print("\x1b[2J\x1b[H", end="")
                    print(frame)
                if once or (args.iterations and iteration >= args.iterations):
                    break
                time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    except (ConnectionError, OSError) as exc:
        print(f"error: connection lost: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args) -> int:
    import os
    from pathlib import Path

    from repro.analysis import all_rules, render_json, render_text, run_lint
    from repro.analysis.reporters import render_sarif
    from repro.analysis.sources import repo_root_for

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:20s} {rule.description}")
        return 0
    paths = args.paths or (["src"] if Path("src").is_dir() else [])
    if not paths:
        print("error: no paths given and no ./src directory", file=sys.stderr)
        return 2
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    select = None
    if args.select is not None:
        select = [code for code in args.select.split(",") if code.strip()]
    if args.no_unused_noqa:
        if select is None:
            select = [
                rule.code for rule in all_rules() if rule.code != "W001"
            ]
        else:
            select = [
                code for code in select
                if code.strip().upper() != "W001"
            ]
    try:
        report = run_lint(paths, select=select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    timings = args.timings or os.environ.get("REPRO_LINT_STABLE") != "1"
    if args.format == "json":
        rendered = render_json(report, timings=timings)
    elif args.format == "sarif":
        rendered = render_sarif(report, root=repo_root_for(Path.cwd()))
    else:
        rendered = render_text(report, timings=timings)
    print(rendered)
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    from repro.core.enumerator import CpeEnumerator
    from repro.core.verify import verify_enumerator
    from repro.graph import datasets
    from repro.graph.io import read_update_stream

    graph = datasets.load(args.dataset, args.scale)
    cpe = CpeEnumerator(graph, args.s, args.t, args.k)
    cpe.startup()
    applied = 0
    if args.stream:
        for update in read_update_stream(args.stream):
            cpe.apply(update)
            applied += 1
    findings = verify_enumerator(cpe)
    print(f"applied {applied} updates; index holds "
          f"{cpe.memory_stats().path_count} partial paths")
    if findings:
        print(f"AUDIT FAILED ({len(findings)} findings):")
        for finding in findings[:20]:
            print(f"    {finding}")
        return 1
    print("audit OK: maintained state equals recomputation")
    return 0


def _cmd_datasets() -> int:
    from repro.graph import datasets

    for name in datasets.DATASET_ORDER:
        spec = datasets.spec(name)
        print(f"{name:4s} {spec.full_name:20s} {spec.family}")
    return 0


def _cmd_stats(args) -> int:
    from repro.graph import datasets
    from repro.graph.stats import diameter_estimate

    graph = datasets.load(args.dataset, args.scale)
    stats = diameter_estimate(graph)
    for key, value in stats.as_row().items():
        print(f"{key:8s} {value}")
    return 0


def _cmd_query(args) -> int:
    from repro.core.enumerator import CpeEnumerator
    from repro.graph import datasets

    graph = datasets.load(args.dataset, args.scale)
    if not (graph.has_vertex(args.s) and graph.has_vertex(args.t)):
        print("error: s/t not in the graph", file=sys.stderr)
        return 2
    cpe = CpeEnumerator(graph, args.s, args.t, args.k)
    paths = cpe.startup()
    if args.count:
        print(len(paths))
    else:
        for path in sorted(paths, key=lambda p: (len(p), p)):
            print(" -> ".join(str(v) for v in path))
        print(f"# {len(paths)} paths, plan l={cpe.plan.l} r={cpe.plan.r}")
    return 0


def _cmd_gen_workload(args) -> int:
    from repro.graph import datasets
    from repro.graph.io import write_update_stream
    from repro.workloads.updates import relevant_update_stream

    graph = datasets.load(args.dataset, args.scale)
    stream = relevant_update_stream(
        graph, args.s, args.t, args.k,
        num_insertions=args.insertions,
        num_deletions=args.deletions,
        seed=args.seed,
    )
    if not stream:
        print("error: no relevant updates exist for this query "
              "(induced subgraph too small)", file=sys.stderr)
        return 2
    count = write_update_stream(stream, args.output)
    print(f"wrote {count} updates to {args.output}")
    return 0


def _cmd_monitor(args) -> int:
    from repro.core.monitor import MultiPairMonitor
    from repro.graph import datasets
    from repro.graph.io import read_update_stream

    pairs = []
    for raw in args.pair:
        try:
            s_text, t_text = raw.split(":", 1)
            pairs.append((int(s_text), int(t_text)))
        except ValueError:
            print(f"error: bad --pair {raw!r}, expected S:T", file=sys.stderr)
            return 2
    graph = datasets.load(args.dataset, args.scale)
    monitor = MultiPairMonitor(graph, args.k)
    for s, t in pairs:
        initial = monitor.watch(s, t)
        print(f"watch ({s}, {t}): {len(initial)} initial paths")
    stream = read_update_stream(args.stream)
    totals = {pair: 0 for pair in pairs}
    for update in stream:
        results = monitor.apply(update)
        for pair, result in results.items():
            if not result.paths:
                continue
            sign = +1 if update.insert else -1
            totals[pair] += sign * len(result.paths)
            print(f"{update}  pair {pair}: "
                  f"{'+' if update.insert else '-'}{len(result.paths)} paths")
            if args.verbose:
                for path in result.paths:
                    print("    " + " -> ".join(str(v) for v in path))
    print("net path-count change per pair:")
    for pair, total in totals.items():
        print(f"    {pair}: {total:+d}")
    return 0


def _cmd_experiment(args) -> int:
    modules = _experiment_modules()
    names = list(modules) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in modules]
    if unknown:
        print(f"error: unknown experiment(s) {unknown}; "
              f"known: {', '.join(modules)}", file=sys.stderr)
        return 2
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.queries is not None:
        overrides["num_queries"] = args.queries
    if args.updates is not None:
        overrides["num_updates"] = args.updates
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = ExperimentConfig.from_env(**overrides)
    save_dir = None
    if args.save:
        from pathlib import Path

        save_dir = Path(args.save)
        save_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        result = modules[name].run(config)
        rendered = result.to_csv() if args.csv else result.format()
        print(rendered)
        print()
        if save_dir is not None:
            suffix = "csv" if args.csv else "txt"
            (save_dir / f"{name}.{suffix}").write_text(
                rendered + "\n", encoding="utf-8"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "main",
]
