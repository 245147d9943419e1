"""The ``trace`` / ``history`` / ``flight`` wire ops end to end over a
live server.

The rings are installed as ``repro serve --metrics`` installs them
(:func:`repro.obs.flight.install`).  ``repro serve`` is one process, so
the ``trace`` op renders that process's flight ring as one Chrome trace
and a flight bundle holds one process record.  The test ids keep the
names they had when these ops also stitched worker captures.
"""

import sys
from pathlib import Path

import pytest

from repro import obs
from repro.graph.digraph import DynamicDiGraph
from repro.obs import events, flight, timeseries
from repro.obs.flight import validate_flight_bundle
from repro.obs.timeseries import DEFAULT_INTERVAL
from repro.obs.trace import validate_chrome_trace
from repro.service.client import ServiceClient
from repro.service.engine import PathQueryEngine
from repro.service.server import serve_in_thread

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.check_flight import check_flight  # noqa: E402


class TestWireOps:
    @pytest.fixture()
    def observed_server(self):
        previous = obs.set_enabled(True)
        previous_events = events.set_enabled(True)
        obs.reset()
        graph = DynamicDiGraph([(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
        engine = PathQueryEngine(graph, default_k=3)
        flight.install(obs.registry())
        handle = serve_in_thread(engine)
        try:
            with ServiceClient(handle.host, handle.port) as client:
                client.watch(0, 3, k=3)
                client.query(0, 3, 3)
                client.insert_edge(2, 1)
                yield client
        finally:
            handle.stop()
            obs.set_trace_sink(None)
            timeseries.install(None)
            obs.set_enabled(previous)
            events.set_enabled(previous_events)
            obs.reset()

    def test_trace_op_returns_one_merged_trace(self, observed_server):
        result = observed_server.trace()
        assert set(result) == {"enabled", "trace"}
        assert result["enabled"] is True
        trace = result["trace"]
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"service.op.watch", "service.op.query"} <= names
        # the default clear empties the ring
        drained = observed_server.trace()["trace"]["traceEvents"]
        assert all(e["name"] == "service.op.trace" for e in drained)

    def test_history_op_returns_ring_snapshot(self, observed_server):
        result = observed_server.history()
        assert result["enabled"] is True
        history = result["history"]
        assert history["interval"] == pytest.approx(DEFAULT_INTERVAL)
        assert history["samples"]

    def test_flight_op_returns_fleet_bundle(self, observed_server):
        result = observed_server.flight(reason="acceptance")
        assert result["enabled"] is True
        bundle = result["bundle"]
        assert validate_flight_bundle(bundle) == []
        assert check_flight(bundle, reason="acceptance") == []
        assert len(bundle["processes"]) == 1
        assert bundle["processes"][0]["spans"]
