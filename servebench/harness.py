"""Start a real ``repro serve``, drive one workload over one connection.

The server runs as its own process with every flag at its default
except the deployment ones: ``--port 0`` (the bound port is read from
its banner) and ``--flight-dir`` (a scratch directory that must stay
empty).  The client is one closed loop on one thread: it sends the next
request only after the previous reply is decoded.

Timed windows cover whole cycles and nothing else; the per-cycle
``stats`` read and the reply checks run between windows.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro.service.client as client_mod
from repro.service.client import ServiceClient

from traffic import DATASET, K, SCALE, Plan

READY_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
#: A p99 needs at least this many samples (ten beyond it).
MIN_TAIL_SAMPLES = 1000
_BANNER = re.compile(rb"^serving \S+ \(scale \S+\) on ([\d.]+):(\d+)")


class RunFailure(Exception):
    """The server or a reply broke the run; reported, never hidden."""


@dataclass
class ServerProcess:
    proc: subprocess.Popen
    flight_dir: Path
    launched: float
    output: List[bytes] = field(default_factory=list)
    address: Optional[Tuple[str, int]] = None
    listening_s: float = 0.0
    max_rss_kb: int = 0

    def __post_init__(self) -> None:
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            match = _BANNER.match(line)
            if match and self.address is None:
                self.address = (match.group(1).decode(), int(match.group(2)))
                self._ready.set()
        self._ready.set()

    def wait_ready(self) -> Tuple[str, int]:
        self._ready.wait(READY_TIMEOUT)
        if self.address is None:
            self.kill()
            raise RunFailure("server never became ready: " + self.text())
        self.listening_s = time.perf_counter() - self.launched
        return self.address

    def text(self) -> str:
        return b"".join(self.output).decode("utf-8", "replace")[-2000:]

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(STOP_TIMEOUT)

    def stop(self) -> None:
        """SIGINT, then reap with the child's own resource usage."""
        if self.proc.returncode is not None:
            raise RunFailure("server died: " + self.text())
        self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + STOP_TIMEOUT
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.kill()
                raise RunFailure("server did not stop on SIGINT")
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = usage.ru_maxrss
        self._reader.join(STOP_TIMEOUT)
        text = self.text()
        if self.proc.returncode != 0:
            raise RunFailure(f"server exit code {self.proc.returncode}: {text}")
        if "shut down" not in text:
            raise RunFailure("server did not print 'shut down': " + text)
        dumps = sorted(p.name for p in self.flight_dir.iterdir())
        if dumps or "flight:" in text.split("Ctrl-C to stop", 1)[-1]:
            raise RunFailure(f"spontaneous flight dump: {dumps}")


def launch(root: Path, scratch: Path, tag: str,
           spans_file: Optional[Path] = None) -> ServerProcess:
    flight_dir = scratch / f"flight-{tag}"
    flight_dir.mkdir(parents=True)
    serve = ["serve", DATASET, "--scale", str(SCALE), "--k", str(K),
             "--port", "0", "--flight-dir", str(flight_dir)]
    if spans_file is None:
        command = [sys.executable, "-m", "repro"] + serve
    else:
        bootstrap = Path(__file__).resolve().parent / "traced_serve.py"
        command = [sys.executable, str(bootstrap), str(spans_file)] + serve
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    launched = time.perf_counter()
    proc = subprocess.Popen(command, cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    return ServerProcess(proc, flight_dir, launched)


def counters(stats: Dict[str, Any]) -> Dict[str, Any]:
    """The server counters that must repeat exactly for one seed."""
    return {
        "served": dict(sorted(stats["served"].items())),
        "updates": {key: stats["updates"][key]
                    for key in ("applied", "noop", "cancelled")},
        "cache": {key: stats["cache"][key]
                  for key in ("hits", "misses", "evictions", "bypasses")},
        "graph": dict(stats["graph"]),
    }


def delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {"graph": after["graph"]}
    for group in ("served", "updates", "cache"):
        keys = sorted(set(after[group]) | set(before[group]))
        out[group] = {k: after[group].get(k, 0) - before[group].get(k, 0)
                      for k in keys}
    return out


@dataclass
class RunResult:
    """One run: set-up medians, timed-phase samples, counters, failures.

    ``rounds[c][i]`` is the round trip, in seconds, of op ``i`` of the
    cycle in timed cycle ``c``.
    """

    setup_s: float
    listening_s: float
    rounds: List[List[float]]
    timed_s: float
    windows: List[Tuple[float, float]]
    attempted: int
    failed: int
    errors: List[str]
    setup_counters: Dict[str, Any]
    cycle_counters: List[Dict[str, Any]]
    end_stats: Dict[str, Any]
    max_rss_kb: int

    @property
    def ops(self) -> int:
        return sum(len(r) for r in self.rounds)


class Driver:
    """One closed-loop client replaying a plan against one server."""

    def __init__(self, plan: Plan, address: Tuple[str, int]) -> None:
        self.plan = plan
        self.client = ServiceClient(*address, timeout=120.0)
        self.failed = 0
        self.attempted = 0
        self.errors: List[str] = []

    def close(self) -> None:
        self.client.close()

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def call(self, op: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """One untimed request; a structured error counts as a failure."""
        self.attempted += 1
        response = self.client.request(op, **fields)
        if not response.ok:
            self._fail(f"{op}: {response.error}")
            return None
        return response.result

    def stats(self) -> Dict[str, Any]:
        result = self.call("stats")
        if result is None:
            raise RunFailure("stats op failed")
        return result

    def watch_all(self) -> None:
        for s, t in self.plan.watches:
            result = self.call("watch", s=s, t=t, k=K)
            expected = self.plan.watch_checks.get((s, t))
            if result is not None and expected is not None:
                got = sorted(client_mod.decode_paths(result["paths"]))
                if got != expected:
                    self._fail(f"watch ({s}, {t}): initial paths differ")

    def cycle(self) -> Tuple[List[float], Dict[int, Any]]:
        """Replay one cycle; returns each op's round trip and the
        sampled replies to check."""
        clock = time.perf_counter
        checks = self.plan.checks
        request = self.client.request
        decode_paths = client_mod.decode_paths
        latencies: List[float] = []
        sampled: Dict[int, Any] = {}
        for position, op in enumerate(self.plan.cycle):
            started = clock()
            if op[0] == "query":
                response = request("query", s=op[1], t=op[2], k=op[3])
                if response.ok:
                    reply = decode_paths(response.result["paths"])
            else:
                response = request("update", u=op[1], v=op[2], insert=op[3])
                if response.ok:
                    reply = {
                        (pair["s"], pair["t"]): decode_paths(pair["paths"])
                        for pair in response.result["pairs"]
                    }
            latencies.append(clock() - started)
            self.attempted += 1
            if not response.ok:
                self._fail(f"{op}: {response.error}")
                continue
            if op[0] == "update" and not response.result["changed"]:
                self._fail(f"{op}: update was a no-op")
            elif op[0] == "update" and not self.plan.watches and reply:
                self._fail(f"{op}: deltas without watched pairs")
            elif op[0] == "query" and response.result["count"] != len(reply):
                self._fail(f"{op}: count does not match paths")
            if position in checks:
                sampled[position] = reply
        return latencies, sampled

    def check(self, sampled: Dict[int, Any]) -> None:
        for position, expected in self.plan.checks.items():
            if position not in sampled:
                continue  # that reply already failed
            reply = sampled[position]
            op = self.plan.cycle[position]
            if op[0] == "query":
                ok = sorted(reply) == expected
            else:
                ok = all(sorted(reply.get(pair, [])) == paths
                         for pair, paths in expected.items())
            if not ok:
                self._fail(f"{op} at {position}: reply differs from oracle")


def _set_up(driver: Driver, server: ServerProcess) -> Tuple[float, Dict[str, Any]]:
    """Watches (monitor) and the warm-up cycle; returns the set-up time
    (launch until ready for timed traffic) and the counters after it."""
    plan = driver.plan
    start = driver.stats()
    driver.watch_all()
    ready = time.perf_counter()
    _, sampled = driver.cycle()
    if not plan.watches:
        # Query workloads are ready once the warm-up cycle filled the cache.
        ready = time.perf_counter()
    driver.check(sampled)
    after = driver.stats()
    if after["graph"] != start["graph"]:
        raise RunFailure("warm-up cycle did not restore the graph")
    return ready - server.launched, counters(after)


def run(plan: Plan, root: Path, scratch: Path, seconds: float, label: str,
        setups: int = 1, spans_file: Optional[Path] = None) -> RunResult:
    """Set up ``setups`` servers in turn; the last one serves the timed
    phase.  Every server's post-set-up counters must be identical."""
    setup_times: List[float] = []
    listening_times: List[float] = []
    setup_counters: List[Dict[str, Any]] = []
    drivers: List[Driver] = []
    for index in range(setups):
        last = index == setups - 1
        server = launch(root, scratch, f"{label}-{index}",
                        spans_file if last else None)
        try:
            driver = Driver(plan, server.wait_ready())
            drivers.append(driver)
            try:
                setup_s, after_setup = _set_up(driver, server)
                setup_times.append(setup_s)
                listening_times.append(server.listening_s)
                setup_counters.append(after_setup)
                if after_setup != setup_counters[0]:
                    raise RunFailure("set-up counters differ between servers")
                if last:
                    timed = _timed(driver, seconds, after_setup)
            finally:
                driver.close()
            server.stop()
        finally:
            server.kill()
    return RunResult(
        setup_s=statistics.median(setup_times),
        listening_s=statistics.median(listening_times),
        attempted=sum(d.attempted for d in drivers),
        failed=sum(d.failed for d in drivers),
        errors=[e for d in drivers for e in d.errors],
        setup_counters=setup_counters[0],
        max_rss_kb=server.max_rss_kb,
        **timed,
    )


def _timed(driver: Driver, seconds: float,
           previous: Dict[str, Any]) -> Dict[str, Any]:
    """Whole cycles until ``seconds`` of traffic and enough samples for
    a p99; the counters are read and the graph checked after each."""
    rounds: List[List[float]] = []
    windows: List[Tuple[float, float]] = []
    cycle_counters: List[Dict[str, Any]] = []
    timed = 0.0
    start_graph = previous["graph"]
    while timed < seconds or (
        len(windows) * len(driver.plan.cycle) < MIN_TAIL_SAMPLES
    ):
        began = time.perf_counter()
        latencies, sampled = driver.cycle()
        ended = time.perf_counter()
        rounds.append(latencies)
        windows.append((began, ended))
        timed += ended - began
        driver.check(sampled)
        now = counters(driver.stats())
        cycle_counters.append(delta(now, previous))
        previous = now
        if now["graph"] != start_graph:
            raise RunFailure("a cycle did not restore the graph")
    return {"rounds": rounds, "windows": windows, "timed_s": timed,
            "cycle_counters": cycle_counters, "end_stats": driver.stats()}
