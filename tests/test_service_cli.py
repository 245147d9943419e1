"""Tests for the ``serve`` / ``bench-serve`` CLI commands."""

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.client import ServiceClient

ROOT = Path(__file__).resolve().parent.parent
BANNER = re.compile(r"^serving \S+ \(scale \S+\) on ([\d.]+):(\d+)")


class TestBenchServe:
    def test_small_run_reports_and_saves(self, tmp_path, capsys):
        target = tmp_path / "serve.json"
        code = main([
            "bench-serve", "WG",
            "--requests", "40",
            "--scale", "0.1",
            "--seed", "7",
            "--save", str(target),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput" in out
        assert "p99" in out
        summary = json.loads(target.read_text())
        assert summary["requests"] == 40
        assert summary["ok"] == 40
        assert summary["errors"] == {}
        assert summary["latency_ms"]["p99"] >= summary["latency_ms"]["p50"]

    def test_acceptance_thousand_requests_no_errors(self, capsys):
        """The ISSUE bar: >= 1,000 served requests without error."""
        code = main([
            "bench-serve", "WG",
            "--requests", "1000",
            "--scale", "0.1",
            "--update-fraction", "0.1",
            "--seed", "11",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "1000 requests" in out
        assert "(1000 ok, 0 errors)" in out


class TestServeParser:
    def test_bad_watch_pair_is_a_usage_error(self, capsys):
        code = main([
            "serve", "WG", "--scale", "0.1", "--watch", "nonsense",
        ])
        assert code == 2
        assert "expected S:T" in capsys.readouterr().err


class TestServeObservabilitySwitch:
    """Metrics are the server's one observability switch: with them on
    (``--metrics`` or ``REPRO_OBS=1``) ``repro serve`` installs the
    flight and history rings; without them it installs neither."""

    @pytest.mark.parametrize(
        "flags, env, on",
        [
            ([], {}, False),
            (["--metrics"], {}, True),
            ([], {"REPRO_OBS": "1"}, True),
        ],
        ids=["default", "metrics-flag", "repro-obs-env"],
    )
    def test_rings_follow_metrics(self, tmp_path, flags, env, on):
        environ = {
            key: value for key, value in os.environ.items()
            if key != "REPRO_OBS"
        }
        environ.update(env, PYTHONUNBUFFERED="1")
        environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "EP", "--scale", "0.1",
             "--port", "0", "--flight-dir", str(tmp_path), *flags],
            cwd=ROOT, env=environ, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        lines = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(line) for line in proc.stdout],
            daemon=True,
        )
        reader.start()
        output = []
        try:
            while True:
                line = lines.get(timeout=60)
                output.append(line)
                match = BANNER.match(line)
                if match:
                    break
            with ServiceClient(match.group(1), int(match.group(2))) as client:
                client.query(23, 4, 6)
                trace = client.trace()
                history = client.history()
                flight = client.flight(reason="manual")
        finally:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)
            reader.join(timeout=5)
        while not lines.empty():
            output.append(lines.get())
        text = "".join(output)
        assert proc.returncode == 0, text
        assert "shut down" in text
        assert list(tmp_path.iterdir()) == []  # no spontaneous dump
        assert trace["enabled"] is on and history["enabled"] is on
        assert flight["enabled"] is on
        names = {e["name"] for e in trace["trace"]["traceEvents"]}
        spans = flight["bundle"]["processes"][0]["spans"]
        if on:
            assert "service.op.query" in names
            assert history["history"]["interval"] == 1.0
            assert spans
        else:
            assert names == set() and history["history"] is None
            assert spans == []
