"""Unit tests for :mod:`repro.obs` — metrics, spans, and reporting."""

import threading

import pytest

from repro import obs
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_name,
)
from repro.obs.spans import NOOP_SPAN, SPAN_SUFFIX


@pytest.fixture(autouse=True)
def _isolated_obs():
    """Every test starts disabled with an empty registry."""
    previous = obs.set_enabled(False)
    obs.reset()
    yield
    obs.set_enabled(previous)
    obs.reset()


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------


def test_counter_increments_and_rejects_negative():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_inc_dec():
    gauge = Gauge("g")
    gauge.set(2.5)
    gauge.inc(1.5)
    gauge.dec(1.0)
    assert gauge.value == pytest.approx(3.0)


def test_histogram_aggregates():
    hist = Histogram("h")
    for v in (1.0, 2.0, 3.0, 4.0):
        hist.observe(v)
    assert hist.count == 4
    assert hist.total == pytest.approx(10.0)
    assert hist.mean == pytest.approx(2.5)
    assert hist.minimum == 1.0
    assert hist.maximum == 4.0


def test_histogram_nearest_rank_quantiles():
    hist = Histogram("h")
    for v in range(1, 101):  # 1..100
        hist.observe(float(v))
    assert hist.quantile(0.50) == 50.0
    assert hist.quantile(0.95) == 95.0
    assert hist.quantile(0.99) == 99.0
    assert hist.quantile(0.0) == 1.0
    assert hist.quantile(1.0) == 100.0
    p = hist.percentiles()
    assert set(p) == {"p50", "p95", "p99"}


def test_histogram_reservoir_is_bounded():
    hist = Histogram("h", reservoir=16)
    for v in range(1000):
        hist.observe(float(v))
    assert hist.count == 1000  # running aggregates see everything
    assert hist.total == pytest.approx(sum(range(1000)))
    # quantiles come from the (recent) reservoir window
    assert hist.quantile(0.5) >= 984.0


def test_histogram_quantile_empty_and_bad_q():
    hist = Histogram("h")
    assert hist.quantile(0.5) == 0.0
    hist.observe(1.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_registry_get_or_create_and_kind_mismatch():
    registry = MetricsRegistry()
    counter = registry.counter("x")
    assert registry.counter("x") is counter
    with pytest.raises(TypeError):
        registry.gauge("x")
    with pytest.raises(TypeError):
        registry.histogram("x")
    assert len(registry) == 1
    assert registry.get("x") is counter
    assert registry.get("missing") is None


def test_registry_reset_clears_metrics():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.histogram("b").observe(1.0)
    registry.reset()
    assert len(registry) == 0
    assert registry.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {}
    }


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    registry.gauge("g").set(1.5)
    registry.histogram("h").observe(0.25)
    snap = registry.snapshot()
    assert snap["counters"] == {"c": 3}
    assert snap["gauges"] == {"g": 1.5}
    hist = snap["histograms"]["h"]
    assert hist["count"] == 1
    assert hist["total"] == pytest.approx(0.25)
    assert "p95" in hist


# ---------------------------------------------------------------------------
# Facade: enable/disable, spans, no-op mode
# ---------------------------------------------------------------------------


def test_disabled_mode_is_a_complete_noop():
    assert not obs.enabled()
    obs.incr("nope")
    obs.set_gauge("nope.g", 1.0)
    obs.observe("nope.h", 2.0)
    with obs.span("nope.span"):
        pass
    snap = obs.snapshot()
    assert snap["counters"] == {}
    assert snap["gauges"] == {}
    assert snap["histograms"] == {}


def test_disabled_span_is_the_shared_singleton():
    assert obs.span("a") is NOOP_SPAN
    assert obs.span("b") is NOOP_SPAN


def test_set_enabled_returns_previous():
    assert obs.set_enabled(True) is False
    assert obs.set_enabled(False) is True
    assert not obs.enabled()


def test_enabled_span_records_a_seconds_histogram():
    obs.enable()
    with obs.span("stage.work"):
        pass
    snap = obs.snapshot()
    name = "stage.work" + SPAN_SUFFIX
    assert name in snap["histograms"]
    assert snap["histograms"][name]["count"] == 1
    assert snap["histograms"][name]["total"] >= 0.0


def test_enabled_counters_and_gauges_record():
    obs.enable()
    obs.incr("hits", 2)
    obs.incr("hits")
    obs.set_gauge("depth", 7)
    snap = obs.snapshot()
    assert snap["counters"]["hits"] == 3
    assert snap["gauges"]["depth"] == 7
    assert snap["enabled"] is True


def test_span_reentrant_timing_accumulates():
    obs.enable()
    for _ in range(3):
        with obs.span("loop"):
            pass
    name = "loop" + SPAN_SUFFIX
    assert obs.registry().histogram(name).count == 3


# ---------------------------------------------------------------------------
# Thread safety
# ---------------------------------------------------------------------------


def test_concurrent_increments_are_exact():
    obs.enable()
    threads = 8
    per_thread = 2000
    barrier = threading.Barrier(threads)

    def work():
        barrier.wait()
        for _ in range(per_thread):
            obs.incr("concurrent.count")
            obs.observe("concurrent.hist", 1.0)

    workers = [threading.Thread(target=work) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    snap = obs.snapshot()
    assert snap["counters"]["concurrent.count"] == threads * per_thread
    hist = snap["histograms"]["concurrent.hist"]
    assert hist["count"] == threads * per_thread
    assert hist["total"] == pytest.approx(threads * per_thread)


# ---------------------------------------------------------------------------
# Prometheus rendering
# ---------------------------------------------------------------------------


def test_prometheus_name_sanitizes():
    assert prometheus_name("construction.build.seconds") == (
        "construction_build_seconds"
    )
    assert prometheus_name("join.1x2.paths") == "join_1x2_paths"


def test_render_prometheus_exposition():
    obs.enable()
    obs.incr("cache.hits", 5)
    obs.set_gauge("queue.depth", 2)
    obs.observe("op.seconds", 0.5)
    text = obs.render_prometheus()
    assert "# TYPE cache_hits counter" in text
    assert "cache_hits 5" in text
    assert "# TYPE queue_depth gauge" in text
    assert "# TYPE op_seconds summary" in text
    assert 'op_seconds{quantile="0.5"} 0.5' in text
    assert "op_seconds_sum 0.5" in text
    assert "op_seconds_count 1" in text


def test_escape_label_value_covers_the_reserved_characters():
    # Regression: label values went into the exposition unescaped, so a
    # backslash, quote, or newline produced unparseable (or split)
    # sample lines.  The text format mandates \\, \", and \n escapes.
    from repro.obs.metrics import escape_label_value

    assert escape_label_value("plain-0.95") == "plain-0.95"
    assert escape_label_value("back\\slash") == "back\\\\slash"
    assert escape_label_value('say "hi"') == 'say \\"hi\\"'
    assert escape_label_value("line\nbreak") == "line\\nbreak"
    # backslash escaping must run first or the other escapes double up
    assert escape_label_value('\\"\n') == '\\\\\\"\\n'
    # escaped output is always a single line
    assert "\n" not in escape_label_value("a\nb\nc")


def test_render_prometheus_label_values_stay_single_line():
    obs.enable()
    obs.observe("op.seconds", 0.5)
    for line in obs.render_prometheus().splitlines():
        if "{" in line:
            # one sample per line: "name{labels} value"
            assert line.count("{") == 1 and line.count("}") == 1
            labels = line[line.index("{") + 1:line.index("}")]
            assert labels.count('"') % 2 == 0


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def test_stage_rows_selects_and_sorts_span_histograms():
    obs.enable()
    obs.observe("fast.seconds", 0.1)
    obs.observe("slow.seconds", 5.0)
    obs.observe("not_a_span", 99.0)  # no .seconds suffix: excluded
    rows = obs.stage_rows(obs.snapshot())
    stages = [stage for stage, _ in rows]
    assert stages == ["slow", "fast"]


def test_render_profile_contains_stages_and_counters():
    obs.enable()
    obs.observe("construction.build.seconds", 0.25)
    obs.incr("construction.builds", 2)
    text = obs.render_profile(obs.snapshot(), title="unit test")
    assert "unit test" in text
    assert "construction.build" in text
    assert "construction.builds" in text
    assert "p95" in text


def test_render_profile_empty_snapshot():
    text = obs.render_profile(obs.snapshot())
    assert isinstance(text, str)


# ---------------------------------------------------------------------------
# Maintenance counters and the relevance gate
# ---------------------------------------------------------------------------


def test_relevance_gate_moves_the_documented_counters():
    from repro.core.enumerator import CpeEnumerator
    from repro.graph.digraph import DynamicDiGraph

    # q(0, 3, 3) over 0 -> {1, 2} -> 3 -> 4 -> 5
    graph = DynamicDiGraph([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    cpe = CpeEnumerator(graph, 0, 3, 3)
    obs.enable()

    def counters():
        snap = obs.snapshot()["counters"]
        return {
            name: snap.get(f"maintenance.{name}", 0)
            for name in ("inserts", "deletes", "untouched", "relaxed",
                         "tightened")
        }

    # Dist_s[1] + 1 + Dist_t[2] = 3 <= 3: a full index repair.
    relevant = cpe.insert_edge(1, 2)
    assert relevant.record.relevant and relevant.paths == [(0, 1, 2, 3)]
    assert counters() == {
        "inserts": 1, "deletes": 0, "untouched": 0, "relaxed": 0,
        "tightened": 0,
    }
    # Dist_s[2] + 1 + Dist_t[4] = 1 + 1 + far > 3: Dist_s only
    # (Dist_s[4] drops from far to 2), no index repair, no delta join.
    index_before = (cpe.index.left.as_dict(), cpe.index.right.as_dict())
    gated = cpe.insert_edge(2, 4)
    assert not gated.record.relevant and gated.changed and gated.paths == []
    assert gated.record.relaxed_s == 1 and cpe.dist_s.get(4) == 2
    assert gated.record.relaxed_t == 0
    assert (cpe.index.left.as_dict(), cpe.index.right.as_dict()) == (
        index_before
    )
    assert counters() == {
        "inserts": 1, "deletes": 0, "untouched": 1, "relaxed": 1,
        "tightened": 0,
    }
    gated = cpe.delete_edge(2, 4)
    assert not gated.record.relevant and cpe.dist_s.get(4) == cpe.dist_s.far
    relevant = cpe.delete_edge(1, 2)
    assert relevant.record.relevant and relevant.paths == [(0, 1, 2, 3)]
    assert counters() == {
        "inserts": 1, "deletes": 1, "untouched": 2, "relaxed": 1,
        "tightened": 1,
    }
    assert cpe.dist_s.is_consistent() and cpe.dist_t.is_consistent()
