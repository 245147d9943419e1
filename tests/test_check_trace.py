"""The explain-trace smoke must check ANALYZE's per-pair accounting."""

import copy
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.graph.digraph import DynamicDiGraph
from repro.obs.explain import explain_query

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.check_trace import check_trace  # noqa: E402


@pytest.fixture(scope="module")
def analyze_trace():
    """An ANALYZE trace of a 4x4 grid query (edges right and down)."""
    graph = DynamicDiGraph()
    for row in range(4):
        for col in range(4):
            v = row * 4 + col
            if col < 3:
                graph.add_edge(v, v + 1)
            if row < 3:
                graph.add_edge(v, v + 4)
    previous = obs.set_enabled(True)
    try:
        with obs.tracing() as buffer:
            report = explain_query(graph, 0, 15, 6, analyze=True)
    finally:
        obs.set_enabled(previous)
        obs.reset()
    return report.to_chrome_trace(buffer)


def join_events(payload):
    return [e for e in payload["traceEvents"] if e["name"] == "explain.join"]


def test_sound_trace_has_one_join_per_plan_pair(analyze_trace):
    assert check_trace(analyze_trace) == []
    plan = analyze_trace["metadata"]["explain"]["plan"]
    assert len(join_events(analyze_trace)) == len(plan)


def test_missing_join_instant_is_reported(analyze_trace):
    payload = copy.deepcopy(analyze_trace)
    payload["traceEvents"].remove(join_events(payload)[0])
    problems = check_trace(payload)
    assert any("missing ['(1, 1)']" in p for p in problems), problems


def test_duplicated_join_instant_is_reported(analyze_trace):
    payload = copy.deepcopy(analyze_trace)
    payload["traceEvents"].append(copy.deepcopy(join_events(payload)[-1]))
    problems = check_trace(payload)
    assert any("extra" in p and "missing []" in p for p in problems), problems


def test_probes_must_equal_the_estimate(analyze_trace):
    payload = copy.deepcopy(analyze_trace)
    join_events(payload)[-1]["args"]["probes"] += 1
    problems = check_trace(payload)
    assert any("probes" in p and "estimated output" in p for p in problems)
