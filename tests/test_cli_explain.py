"""CLI tests for ``repro explain`` and ``repro top``."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core.enumerator import CpeEnumerator
from repro.graph import datasets
from repro.obs import events
from repro.obs.trace import validate_chrome_trace
from repro.service.engine import PathQueryEngine
from repro.service.server import serve_in_thread


class TestExplainCommand:
    def test_text_format_auto_picks_a_pair(self, capsys):
        assert main(["explain", "RT", "--scale", "0.25", "--analyze"]) == 0
        captured = capsys.readouterr()
        assert "auto-picked query pair" in captured.err
        assert "EXPLAIN ANALYZE" in captured.out
        assert "dynamic cut decisions" in captured.out
        assert "total paths: " in captured.out

    def test_explicit_pair_without_analyze(self, capsys):
        assert main(["explain", "RT", "0", "5", "4", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN q(" in out
        assert "join pairs" not in out or "emitted" not in out

    def test_json_format(self, capsys):
        assert main([
            "explain", "RT", "0", "5", "4", "--scale", "0.25",
            "--analyze", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-explain/1"
        assert payload["query"] == {"s": 0, "t": 5, "k": 4}
        cpe = CpeEnumerator(datasets.load("RT", 0.25), 0, 5, 4)
        assert payload["total_paths"] == cpe.count_paths()

    def test_trace_format_writes_valid_chrome_trace(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main([
            "explain", "RT", "0", "5", "4", "--scale", "0.25",
            "--analyze", "--format", "trace", "--out", str(out_file),
        ]) == 0
        assert f"wrote {out_file}" in capsys.readouterr().out
        payload = json.loads(out_file.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []
        names = {event["name"] for event in payload["traceEvents"]}
        assert "explain.cut" in names
        assert payload["metadata"]["explain"]["schema"] == "repro-explain/1"

    def test_trace_format_leaves_obs_disabled(self, tmp_path):
        previous = obs.set_enabled(False)
        try:
            assert main([
                "explain", "RT", "0", "5", "4", "--scale", "0.25",
                "--format", "trace", "--out", str(tmp_path / "t.json"),
            ]) == 0
            assert not obs.enabled()
        finally:
            obs.set_enabled(previous)
            obs.reset()

    def test_unknown_dataset_fails(self, capsys):
        assert main(["explain", "NOPE"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_s_without_t_fails(self, capsys):
        assert main(["explain", "RT", "0", "--scale", "0.25"]) == 2
        assert "give both s and t" in capsys.readouterr().err

    def test_missing_vertex_fails(self, capsys):
        assert main([
            "explain", "RT", "0", "999999", "4", "--scale", "0.25",
        ]) == 2
        assert "not in the graph" in capsys.readouterr().err


class TestTopCommand:
    @pytest.fixture
    def live_server(self, diamond):
        previous_obs = obs.set_enabled(True)
        obs.reset()
        previous_events = events.set_enabled(True)
        events.reset()
        engine = PathQueryEngine(diamond, default_k=3)
        handle = serve_in_thread(engine)
        try:
            yield handle
        finally:
            handle.stop()
            events.set_enabled(previous_events)
            events.reset()
            obs.set_enabled(previous_obs)
            obs.reset()

    def test_one_refresh_snapshot(self, live_server, capsys):
        from repro.service.client import ServiceClient

        with ServiceClient(live_server.host, live_server.port) as client:
            client.query(0, 3, 3)
            client.query(0, 3, 3)
        assert main([
            "top", "--host", live_server.host,
            "--port", str(live_server.port),
            "--iterations", "1", "--interval", "0.01", "--no-clear",
        ]) == 0
        out = capsys.readouterr().out
        assert "repro top —" in out
        assert "query latency" in out
        assert "cache hit rate 50.0%" in out
        assert "in-flight" in out
        assert "recent events" in out
        assert "query.finished" in out

    def test_multiple_refreshes_compute_qps(self, live_server, capsys):
        assert main([
            "top", "--host", live_server.host,
            "--port", str(live_server.port),
            "--iterations", "2", "--interval", "0.01", "--no-clear",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("repro top —") == 2
        # the first refresh has no previous sample to diff against
        assert "qps --" in out

    def test_connection_refused_is_an_error(self, capsys):
        assert main([
            "top", "--host", "127.0.0.1", "--port", "1",
            "--iterations", "1",
        ]) == 1
        assert "cannot connect" in capsys.readouterr().err

    def test_events_disabled_note(self, diamond, capsys):
        engine = PathQueryEngine(diamond, default_k=3)
        with serve_in_thread(engine) as handle:
            assert main([
                "top", "--host", handle.host, "--port", str(handle.port),
                "--iterations", "1", "--interval", "0.01", "--no-clear",
            ]) == 0
        assert "event log disabled" in capsys.readouterr().out
