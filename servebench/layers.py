"""Per-layer metrics from the traced run's spans.

Only spans that start inside a timed window count, so set-up, warm-up
and the per-cycle ``stats`` reads stay out.  A span's self time is its
duration minus the durations of its direct children.  "Per op" divides
by the timed requests of any type, "per update" by the timed updates,
"per call" by the spans of that kind, "per cycle" by the timed cycles.
A layer that does not run on a workload reports 0.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, List, Tuple

from harness import RunResult
from spans import Spans
from traffic import Plan

Metric = Tuple[float, str]


class _Totals:
    __slots__ = ("calls", "seconds", "self_seconds", "n")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.n = 0


def _in_windows(windows: List[Tuple[float, float]]):
    starts = [w[0] for w in windows]

    def inside(instant: float) -> bool:
        i = bisect.bisect_right(starts, instant) - 1
        return i >= 0 and instant <= windows[i][1]

    return inside


def aggregate(
    spans: Spans, windows: List[Tuple[float, float]], under: str = ""
) -> Tuple[Dict[str, _Totals], Dict[str, _Totals]]:
    """Totals per span name over the timed windows; the second mapping
    holds the spans nested (at any depth) below a span named ``under``."""
    inside = _in_windows(windows)
    count = len(spans)
    child_seconds = [0.0] * count
    nested = [False] * count
    for i in range(count):
        parent = spans.parent[i]
        if parent >= 0 and spans.name[i] >= 0:
            child_seconds[parent] += spans.end[i] - spans.start[i]
            nested[i] = nested[parent] or spans.names[spans.name[parent]] == under
    totals: Dict[str, _Totals] = defaultdict(_Totals)
    below: Dict[str, _Totals] = defaultdict(_Totals)
    for i in range(count):
        if spans.name[i] < 0 or not inside(spans.start[i]):
            continue
        name = spans.names[spans.name[i]]
        seconds = spans.end[i] - spans.start[i]
        for table in (totals, below) if nested[i] else (totals,):
            entry = table[name]
            entry.calls += 1
            entry.seconds += seconds
            entry.self_seconds += seconds - child_seconds[i]
            entry.n += spans.n[i]
    return totals, below


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    plan: Plan, server: Spans, client: Spans, traced: RunResult,
    untraced: RunResult,
) -> Dict[str, Metric]:
    totals, under_cache = aggregate(server, traced.windows, "cache.observe_all")
    side, _ = aggregate(client, traced.windows)
    cycles = len(traced.windows)
    queries = cycles * sum(1 for op in plan.cycle if op[0] == "query")
    updates = cycles * sum(1 for op in plan.cycle if op[0] == "update")
    ops = queries + updates
    round_trips = sum(sum(r) for r in traced.rounds)

    def t(name: str) -> _Totals:
        return totals[name]

    handle_q, handle_u = t("engine.handle.query"), t("engine.handle.update")
    busy = handle_q.seconds + handle_u.seconds
    busy_self = handle_q.self_seconds + handle_u.self_seconds
    lookups = t("cache.get_or_build")
    repairs = under_cache["cpe.observe"].calls
    builds = t("construction.build_index")
    bfs = t("distance.bfs")
    relax, tighten = t("distance.relax_insert"), t("distance.tighten_delete")
    maint = [t("maintenance.insert_edge"), t("maintenance.delete_edge"),
             t("maintenance.apply_removals")]
    full, delta = t("enumeration.full"), t("enumeration.delta")
    apply_update = t("graph.apply_update")
    evictions = sum(c["cache"]["evictions"] for c in traced.cycle_counters)
    traced_rate = _ratio(traced.ops, traced.timed_s)
    untraced_rate = _ratio(untraced.ops, untraced.timed_s)
    decode = side["client.decode_response"]
    ms = 1e3
    return {
        "server.overhead_ms_per_op": (_ratio(round_trips - busy, ops) * ms, "ms"),
        "server.reply_kb_per_op": (_ratio(decode.n / 1024, ops), "KB"),
        "client.decode_ms_per_op": (
            _ratio(decode.seconds + side["client.decode_paths"].seconds, ops)
            * ms, "ms"),
        "protocol.encode_ms_per_op": (
            _ratio(t("protocol.encode_paths").seconds
                   + t("protocol.to_wire").seconds, ops) * ms, "ms"),
        "admission.wait_ms_per_op": (
            _ratio(t("admission.wait").seconds, ops) * ms, "ms"),
        "engine.busy_ms_per_op.query": (
            _ratio(handle_q.seconds, queries) * ms, "ms"),
        "engine.busy_ms_per_op.update": (
            _ratio(handle_u.seconds, updates) * ms, "ms"),
        "engine.self_share": (_ratio(busy_self, busy), "ratio"),
        "cache.hit_ratio": (_ratio(lookups.n, lookups.calls), "ratio"),
        "cache.misses": (_ratio(lookups.calls - lookups.n, cycles), "count/cycle"),
        "cache.evictions": (_ratio(evictions, cycles), "count/cycle"),
        "cache.repairs_per_update": (_ratio(repairs, updates), "count/update"),
        "cache.observe_all_ms_per_update": (
            _ratio(t("cache.observe_all").seconds, updates) * ms, "ms"),
        "cache.repairs_per_hit": (_ratio(repairs, lookups.n), "count/hit"),
        "cache.mb": (traced.end_stats["cache"]["current_bytes"] / 2**20, "MB"),
        "construction.builds": (_ratio(builds.calls, cycles), "count/cycle"),
        "construction.build_ms_per_call": (
            _ratio(builds.seconds, builds.calls) * ms, "ms"),
        "distance.bfs_ms_per_call": (_ratio(bfs.seconds, bfs.calls) * ms, "ms"),
        "distance.repair_ms_per_update": (
            _ratio(relax.seconds + tighten.seconds, updates) * ms, "ms"),
        "distance.repaired_vertices_per_update": (
            _ratio(relax.n + tighten.n, updates), "count/update"),
        "maintenance.self_ms_per_update": (
            _ratio(sum(m.self_seconds for m in maint), updates) * ms, "ms"),
        "maintenance.delta_partials_per_update": (
            _ratio(maint[0].n + maint[1].n, updates), "count/update"),
        "enumeration.full_ms_per_call": (
            _ratio(full.seconds, full.calls) * ms, "ms"),
        "enumeration.full_paths_per_s": (_ratio(full.n, full.seconds), "paths/s"),
        "enumeration.delta_ms_per_update": (
            _ratio(delta.seconds, updates) * ms, "ms"),
        "enumeration.delta_paths_per_update": (
            _ratio(delta.n, updates), "count/update"),
        "enumeration.delta_paths_discarded_per_update": (
            _ratio(under_cache["enumeration.delta"].n, updates), "count/update"),
        "monitor.observe_ms_per_update": (
            _ratio(t("monitor.observe").seconds, updates) * ms, "ms"),
        "monitor.pairs_per_update": (
            _ratio(t("monitor.observe").n, updates), "count/update"),
        "graph.apply_update_us_per_call": (
            _ratio(apply_update.seconds, apply_update.calls) * 1e6, "us"),
        "trace.ops_per_s": (traced_rate, "ops/s"),
        "trace.untraced_ops_per_s": (untraced_rate, "ops/s"),
        "trace.overhead_share": (1.0 - _ratio(traced_rate, untraced_rate), "ratio"),
    }
