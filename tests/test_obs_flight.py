"""Units for the flight recorder and the time-series ring
(:mod:`repro.obs.flight`, :mod:`repro.obs.timeseries`)."""

import sys
import time
from pathlib import Path

import pytest

from repro.obs import flight as flight_mod
from repro.obs import spans as spans_mod
from repro.obs import timeseries as timeseries_mod
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    BurstDetector,
    validate_flight_bundle,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRing
from repro.obs.trace import TraceBuffer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.check_flight import check_flight  # noqa: E402


@pytest.fixture(autouse=True)
def _clean_process_slots():
    """Span sink and time-series slots start and end empty."""
    previous_sink = spans_mod.set_trace_sink(None)
    previous_ring = timeseries_mod.install(None)
    yield
    spans_mod.set_trace_sink(previous_sink)
    timeseries_mod.install(previous_ring)


# ---------------------------------------------------------------------------
# Time-series ring
# ---------------------------------------------------------------------------


class TestTimeSeriesRing:
    def test_counter_deltas_per_tick(self):
        registry = MetricsRegistry()
        counter = registry.counter("req")
        ring = TimeSeriesRing(registry, interval=1.0, capacity=8)
        counter.inc(3)
        ring.sample(now=1.0)
        counter.inc(2)
        ring.sample(now=2.0)
        ring.sample(now=3.0)
        assert ring.series("counters", "req") == [3.0, 2.0, 0.0]

    def test_histogram_percentiles_and_count_delta(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        ring = TimeSeriesRing(registry, interval=1.0, capacity=8)
        for v in (0.1, 0.2, 0.3):
            histogram.observe(v)
        ring.sample(now=1.0)
        histogram.observe(0.4)
        ring.sample(now=2.0)
        assert ring.series("histograms", "lat", "count") == [3.0, 1.0]
        p50 = ring.series("histograms", "lat", "p50")
        assert len(p50) == 2 and p50[0] > 0.0

    def test_capacity_trims_oldest(self):
        registry = MetricsRegistry()
        ring = TimeSeriesRing(registry, interval=1.0, capacity=3)
        for tick in range(6):
            ring.sample(now=float(tick))
        snapshot = ring.snapshot()
        assert len(snapshot["samples"]) == 3
        assert snapshot["total_samples"] == 6

    def test_snapshot_timestamps_relative_to_newest(self):
        registry = MetricsRegistry()
        ring = TimeSeriesRing(registry, interval=1.0, capacity=8)
        ring.sample(now=10.0)
        ring.sample(now=11.5)
        stamps = [s["ts"] for s in ring.snapshot()["samples"]]
        assert stamps == [pytest.approx(-1.5), pytest.approx(0.0)]

    def test_maybe_sample_respects_interval(self):
        registry = MetricsRegistry()
        ring = TimeSeriesRing(registry, interval=5.0, capacity=8)
        assert ring.maybe_sample(now=0.0) is True
        assert ring.maybe_sample(now=1.0) is False
        assert ring.maybe_sample(now=5.0) is True
        assert len(ring) == 2

    def test_module_slot_install_and_tick(self):
        registry = MetricsRegistry()
        ring = TimeSeriesRing(registry, interval=0.0001, capacity=4)
        assert timeseries_mod.maybe_sample() is False  # no ring installed
        previous = timeseries_mod.install(ring)
        assert previous is None
        assert timeseries_mod.current() is ring
        assert timeseries_mod.maybe_sample() is True


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_window_evicts_old_spans(self):
        ring = TraceBuffer(window=10.0)
        ring.record_span("old", 0.0, 1.0, 1)
        ring.record_span("new", 20.0, 1.0, 1)
        names = [span[0] for span in ring.spans(now=21.0)]
        assert names == ["new"]

    def test_max_spans_bounds_memory(self):
        ring = TraceBuffer(window=1e6, max_spans=4)
        for i in range(10):
            ring.record_span(f"s{i}", float(i), 0.1, 1)
        assert len(ring) == 4

    def test_process_record_and_bundle_validate(self):
        ring = TraceBuffer(window=30.0)
        started = time.perf_counter()
        ring.record_span("service.op.query", started, 0.2, 7)
        spans_mod.set_trace_sink(ring)
        registry = MetricsRegistry()
        registry.counter("req").inc()
        record = flight_mod.process_record(registry)
        assert record["window_seconds"] == 30.0
        assert record["spans"] == [["service.op.query", started, 0.2, 7]]
        bundle = flight_mod.bundle("manual", [record])
        assert bundle["schema"] == FLIGHT_SCHEMA
        assert validate_flight_bundle(bundle) == []
        assert check_flight(bundle, reason="manual", min_processes=1) == []

    def test_installed_recorder_captures_spans(self):
        registry = MetricsRegistry()
        ring = flight_mod.install(registry)
        assert flight_mod.ring() is ring
        assert ring.window == flight_mod.DEFAULT_WINDOW
        assert timeseries_mod.current() is not None
        with spans_mod.Span("flight.test", registry):
            pass
        assert any(s[0] == "flight.test" for s in ring.spans())
        spans_mod.set_trace_sink(None)
        assert flight_mod.ring() is None

    def test_disabled_process_record_is_still_bundleable(self):
        registry = MetricsRegistry()
        record = flight_mod.process_record(registry)
        assert record["window_seconds"] == 0.0
        assert record["spans"] == []
        bundle = flight_mod.bundle("wire", [record])
        assert validate_flight_bundle(bundle) == []

    def test_validate_rejects_malformed_bundles(self):
        assert validate_flight_bundle([]) != []
        assert validate_flight_bundle({"schema": "nope"}) != []
        bad_proc = {
            "schema": FLIGHT_SCHEMA,
            "reason": "manual",
            "generated_at": 0.0,
            "processes": [{"pid": "x", "spans": "none"}],
        }
        problems = validate_flight_bundle(bad_proc)
        assert any("pid" in p for p in problems)
        assert any("spans" in p for p in problems)

    def test_check_flight_reason_and_process_floor(self):
        registry = MetricsRegistry()
        bundle = flight_mod.bundle(
            "manual", [flight_mod.process_record(registry)]
        )
        assert check_flight(bundle, reason="deadline-burst") != []
        assert check_flight(bundle, min_processes=2) != []


class TestBurstDetector:
    def test_fires_on_threshold_within_horizon(self):
        detector = BurstDetector(threshold=3, horizon=10.0)
        assert detector.note(1.0) is False
        assert detector.note(2.0) is False
        assert detector.note(3.0) is True

    def test_old_marks_age_out(self):
        detector = BurstDetector(threshold=3, horizon=5.0)
        detector.note(0.0)
        detector.note(1.0)
        # The first two fall outside the horizon by now.
        assert detector.note(20.0) is False

    def test_resets_after_firing(self):
        detector = BurstDetector(threshold=2, horizon=10.0)
        assert detector.note(1.0) is False
        assert detector.note(2.0) is True
        # A fresh burst is needed to fire again.
        assert detector.note(3.0) is False
        assert detector.note(4.0) is True
