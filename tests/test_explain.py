"""Tests for :mod:`repro.obs.explain` — per-query EXPLAIN/ANALYZE.

The reports must agree with the algorithms they describe: the recorded
cut sums to k, the ANALYZE path total equals the enumerator's path
count (the ANALYZE invariant), and the frontier-cost estimates bound
the measured join output from above (they ignore disjointness).  They
are read off the records a build and a join keep, so the core imports
no EXPLAIN code and explaining a query changes no obs metric.
"""

import ast
import json
from pathlib import Path

import pytest

import repro.core
from repro import obs
from repro.core.construction import build_index
from repro.core.enumeration import count_full
from repro.core.enumerator import CpeEnumerator
from repro.core.plan import JoinPlan
from repro.obs.explain import explain_build, explain_query
from repro.obs.trace import validate_chrome_trace
from repro.graph.digraph import DynamicDiGraph

#: A small graph whose k=6 plan grows both sides and has a pair,
#: (2, 4), with no join step (RP_4 is empty), plus the direct edge.
PIN_EDGES = [
    (0, 2), (0, 3), (0, 7), (1, 7), (2, 0), (2, 3),
    (2, 6), (2, 7), (3, 6), (5, 7), (6, 7), (7, 1),
]

#: Keys an ANALYZE report adds to an EXPLAIN report.
ANALYZE_KEYS = ("join_pairs", "total_paths")


def _cut(step, side, left, right, forced=False):
    return {"step": step, "side": side, "left_frontier": left,
            "right_frontier": right, "forced": forced}


def _level(side, level, expansions, admitted, pruned):
    return {"side": side, "level": level, "expansions": expansions,
            "admitted": admitted, "pruned": pruned}


def _pair(i, j, cut_vertices, probes, emitted):
    return {"i": i, "j": j, "cut_vertices": cut_vertices,
            "probes": probes, "emitted": emitted}


def _header(k, analyze=True):
    return {"schema": "repro-explain/1", "query": {"s": 0, "t": 7, "k": k},
            "analyze": analyze,
            "graph": {"num_vertices": 7, "num_edges": 12}}


#: ``explain_query(PIN, 0, 7, k, analyze=True).to_dict()`` minus
#: ``timings``, as the recorder-based EXPLAIN reported it.
PINNED_ANALYZE = {
    0: {**_header(0), "cut": {"split": [0, 0], "steps": []},
        "levels": [], "plan": [], "estimates": [],
        "buckets": {"left": {}, "right": {}, "direct_edge": False},
        "total_paths": 0},
    1: {**_header(1), "cut": {"split": [0, 0], "steps": []},
        "levels": [], "plan": [], "estimates": [],
        "buckets": {"left": {}, "right": {}, "direct_edge": True},
        "total_paths": 1},
    6: {**_header(6),
        "cut": {"split": [2, 4], "steps": [
            _cut(3, "left", 2, 3), _cut(4, "right", 3, 3),
            _cut(5, "right", 3, 2), _cut(6, "right", 3, 1),
        ]},
        "levels": [
            _level("left", 1, 3, 2, 1), _level("right", 1, 5, 3, 2),
            _level("left", 2, 5, 3, 2), _level("right", 2, 4, 2, 2),
            _level("right", 3, 3, 1, 2), _level("right", 4, 1, 0, 1),
        ],
        "plan": [[1, 1], [2, 1], [2, 2], [2, 3], [2, 4]],
        "buckets": {"left": {"1": 2, "2": 3},
                    "right": {"1": 3, "2": 2, "3": 1, "4": 0},
                    "direct_edge": True},
        "estimates": [
            {"i": 1, "j": 1, "cut_vertices": 1, "est_output": 1},
            {"i": 2, "j": 1, "cut_vertices": 1, "est_output": 2},
            {"i": 2, "j": 2, "cut_vertices": 1, "est_output": 1},
            {"i": 2, "j": 3, "cut_vertices": 0, "est_output": 0},
            {"i": 2, "j": 4, "cut_vertices": 0, "est_output": 0},
        ],
        "join_pairs": [
            _pair(1, 1, 1, 1, 1), _pair(2, 1, 1, 2, 2),
            _pair(2, 2, 1, 1, 1), _pair(2, 3, 0, 0, 0),
            _pair(2, 4, 0, 0, 0),
        ],
        "total_paths": 5},
}

#: The record part of an ANALYZE run over a build with this forced plan.
FORCED_PLAN = JoinPlan(6, ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)))
PINNED_FORCED = {
    "cut": {"split": [3, 3], "steps": [
        _cut(3, "right", 2, 3, True), _cut(4, "left", 2, 2, True),
        _cut(5, "right", 3, 2, True), _cut(6, "left", 3, 1, True),
    ]},
    "levels": [
        _level("left", 1, 3, 2, 1), _level("right", 1, 5, 3, 2),
        _level("right", 2, 4, 2, 2), _level("left", 2, 5, 3, 2),
        _level("right", 3, 3, 1, 2), _level("left", 3, 3, 1, 2),
    ],
    "plan": [[1, 1], [1, 2], [2, 2], [2, 3], [3, 3]],
    "buckets": {"left": {"1": 2, "2": 3, "3": 1},
                "right": {"1": 3, "2": 2, "3": 1}, "direct_edge": True},
    "join_pairs": [
        _pair(1, 1, 1, 1, 1), _pair(1, 2, 2, 2, 2), _pair(2, 2, 1, 1, 1),
        _pair(2, 3, 0, 0, 0), _pair(3, 3, 0, 0, 0),
    ],
    "total_paths": 5,
}


@pytest.fixture
def grid():
    """A 4x4 grid digraph (edges right and down): many 0->15 paths."""
    graph = DynamicDiGraph()
    for row in range(4):
        for col in range(4):
            v = row * 4 + col
            if col < 3:
                graph.add_edge(v, v + 1)
            if row < 3:
                graph.add_edge(v, v + 4)
    return graph


class TestExplain:
    def test_split_sums_to_k(self, grid):
        report = explain_query(grid, 0, 15, 6)
        l, r = report.record.split
        assert l + r == 6
        assert report.record.plan_pairs[0] == (1, 1)

    def test_buckets_and_levels_are_recorded(self, grid):
        record = explain_query(grid, 0, 15, 6).record
        assert record.left_buckets and record.right_buckets
        assert any(level.side == "left" for level in record.levels)
        assert any(level.side == "right" for level in record.levels)
        for level in record.levels:
            assert level.pruned == level.expansions - level.admitted
            assert level.pruned >= 0

    def test_cut_steps_carry_frontier_sizes(self, grid):
        record = explain_query(grid, 0, 15, 6).record
        assert record.cut_steps, "Opt. 2 made no recorded decisions"
        for step in record.cut_steps:
            assert step.side in ("left", "right")
            assert step.left_frontier >= 0 and step.right_frontier >= 0

    def test_explain_without_analyze_leaves_invariant_open(self, grid):
        record = explain_query(grid, 0, 15, 6).record
        assert record.total_paths is None
        assert record.join_pairs == []

    def test_analyze_invariant_holds(self, grid):
        report = explain_query(grid, 0, 15, 6, analyze=True)
        record = report.record
        expected = len(CpeEnumerator(grid, 0, 15, 6).startup())
        assert record.total_paths == expected

    def test_analyze_invariant_holds_with_direct_edge(self, diamond):
        report = explain_query(diamond, 0, 3, 3, analyze=True)
        record = report.record
        assert record.direct_edge is True
        assert record.total_paths == 3

    def test_estimates_bound_measured_output(self, grid):
        report = explain_query(grid, 0, 15, 6, analyze=True)
        measured = {(p.i, p.j): p.emitted for p in report.record.join_pairs}
        for estimate in report.estimates:
            pair = (estimate["i"], estimate["j"])
            assert estimate["est_output"] >= measured.get(pair, 0)

    def test_no_paths_query(self):
        graph = DynamicDiGraph([(0, 1), (2, 3)])
        report = explain_query(graph, 0, 3, 4, analyze=True)
        assert report.record.total_paths == 0

    def test_rejects_bad_query(self, grid):
        with pytest.raises(ValueError):
            explain_query(grid, 0, 0, 4)


class TestProductionRecords:
    @pytest.mark.parametrize("k", [0, 1, 6])
    @pytest.mark.parametrize("analyze", [False, True])
    def test_report_is_pinned(self, k, analyze):
        payload = explain_query(
            DynamicDiGraph(PIN_EDGES), 0, 7, k, analyze=analyze
        ).to_dict()
        del payload["timings"]
        expected = dict(PINNED_ANALYZE[k], analyze=analyze)
        if not analyze:
            for key in ANALYZE_KEYS:
                expected.pop(key, None)
        assert payload == expected

    def test_forced_plan_report_is_pinned(self):
        graph = DynamicDiGraph(PIN_EDGES)
        result = build_index(graph, 0, 7, 6, forced_plan=FORCED_PLAN)
        payload = explain_build(graph, result, analyze=True).to_dict()
        assert {key: payload[key] for key in PINNED_FORCED} == PINNED_FORCED

    def test_explain_records_the_same_join_metrics_as_a_plain_run(self):
        graph = DynamicDiGraph(PIN_EDGES)
        index = build_index(graph, 0, 7, 6).index
        steps = {(step.i, step.j) for step in index.packed_program()}
        assert (2, 4) in index.plan and (2, 4) not in steps

        def join_metrics(run):
            previous = obs.set_enabled(True)
            obs.reset()
            try:
                run()
                snapshot = obs.snapshot()
            finally:
                obs.set_enabled(previous)
                obs.reset()
            histogram = snapshot["histograms"]["enumeration.join_pair_output"]
            counters = {
                name: value
                for name, value in snapshot["counters"].items()
                if name.startswith("enumeration.")
            }
            return counters, histogram["count"], histogram["total"]

        explained = join_metrics(
            lambda: explain_query(graph, 0, 7, 6, analyze=True)
        )
        plain = join_metrics(
            lambda: count_full(build_index(graph, 0, 7, 6).index)
        )
        assert explained == plain
        assert explained[1] == len(steps)

    def test_core_never_imports_explain(self):
        core = Path(repro.core.__file__).parent
        offenders = []
        for path in sorted(core.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    names = [module] + [
                        f"{module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if any(
                    name == "repro.obs.explain"
                    or name.startswith("repro.obs.explain.")
                    for name in names
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


class TestReportRendering:
    def test_to_dict_schema(self, grid):
        payload = explain_query(grid, 0, 15, 6, analyze=True).to_dict()
        assert payload["schema"] == "repro-explain/1"
        assert payload["query"] == {"s": 0, "t": 15, "k": 6}
        assert payload["analyze"] is True
        assert payload["graph"]["num_vertices"] == 16
        assert payload["total_paths"] == 20
        assert sum(payload["cut"]["split"]) == 6
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_render_text_mentions_the_decisions(self, grid):
        text = explain_query(grid, 0, 15, 6, analyze=True).render_text()
        assert "EXPLAIN ANALYZE" in text
        assert "dynamic cut decisions" in text
        assert "Opt. 1" in text
        assert "join pairs" in text
        assert "total paths: 20\n" in text

    def test_chrome_trace_round_trip(self, grid):
        previous = obs.set_enabled(True)
        try:
            with obs.tracing() as buffer:
                report = explain_query(grid, 0, 15, 6, analyze=True)
        finally:
            obs.set_enabled(previous)
        payload = report.to_chrome_trace(buffer)
        assert validate_chrome_trace(payload) == []
        names = {event["name"] for event in payload["traceEvents"]}
        assert "explain.cut" in names
        assert "explain.level" in names
        assert "explain.join" in names
        assert "construction.build" in names
        assert payload["metadata"]["explain"]["schema"] == "repro-explain/1"

    def test_trace_instants_carry_counter_args(self, grid):
        previous = obs.set_enabled(True)
        try:
            with obs.tracing() as buffer:
                report = explain_query(grid, 0, 15, 6, analyze=True)
        finally:
            obs.set_enabled(previous)
        payload = report.to_chrome_trace(buffer)
        levels = [e for e in payload["traceEvents"]
                  if e["name"] == "explain.level"]
        assert levels
        for event in levels:
            assert {"side", "level", "expansions", "admitted"} <= set(
                event["args"]
            )
        joins = [e for e in payload["traceEvents"]
                 if e["name"] == "explain.join"]
        assert sum(e["args"]["emitted"] for e in joins) + int(
            report.record.direct_edge
        ) == report.record.total_paths
