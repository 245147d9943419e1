"""End-to-end tests: live TCP server + blocking client.

The acceptance bar: served results are exactly equal (as path sets) to
direct :class:`CpeEnumerator` calls on the same graph state, under an
interleaving of ``query`` / ``watch`` / ``update`` over a live server;
deadline and admission rejections come back as structured protocol
errors, never a crash or hang.
"""

import functools
import json
import random
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.baselines.bruteforce import path_set
from repro.graph.digraph import DynamicDiGraph
from repro.service.client import ServiceClient
from repro.service.engine import PathQueryEngine
from repro.service.protocol import (
    BadRequestError,
    DeadlineExceededError,
    NotFoundError,
    OverloadedError,
    UnknownOpError,
)
from repro.service import server as server_mod
from repro.service.server import serve_in_thread
from tests.conftest import make_random_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.check_flight import check_flight  # noqa: E402


@pytest.fixture()
def diamond_server():
    graph = DynamicDiGraph([(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
    engine = PathQueryEngine(graph, default_k=3)
    handle = serve_in_thread(engine)
    try:
        yield handle, graph
    finally:
        handle.stop()


class TestEndToEnd:
    def test_query_watch_update_interleaving_matches_direct(self):
        """The acceptance-criteria interleaving over a live server."""
        rng = random.Random(99)
        graph = make_random_graph(rng, n_lo=6, n_hi=8, max_edges=16)
        mirror = graph.copy()
        engine = PathQueryEngine(graph, default_k=4)
        handle = serve_in_thread(engine)
        try:
            with ServiceClient(handle.host, handle.port) as client:
                vertices = list(mirror.vertices())
                watched = set()
                for step in range(60):
                    u, v = rng.sample(vertices, 2)
                    roll = rng.random()
                    if roll < 0.3:
                        insert = not mirror.has_edge(u, v)
                        client.update(u, v, insert)
                        mirror.add_edge(u, v) if insert else \
                            mirror.remove_edge(u, v)
                    elif roll < 0.45 and (u, v) not in watched:
                        served = client.watch(u, v)
                        watched.add((u, v))
                        assert set(served) == path_set(mirror, u, v, 4)
                    else:
                        k = rng.randint(1, 4)
                        served = client.query(u, v, k)
                        direct = path_set(mirror, u, v, k)
                        assert set(served) == direct, (
                            f"step {step}: served q({u}, {v}, {k}) diverged"
                        )
        finally:
            handle.stop()

    def test_watch_deltas_reconstruct_final_result(self, diamond_server):
        handle, graph = diamond_server
        with ServiceClient(handle.host, handle.port) as client:
            maintained = set(client.watch(0, 3, k=3))
            stream = [(1, 2, True), (0, 3, False), (0, 1, False)]
            for u, v, insert in stream:
                result = client.update(u, v, insert)
                for pair in result["pairs"]:
                    if insert:
                        maintained |= set(pair["paths"])
                    else:
                        maintained -= set(pair["paths"])
            assert maintained == path_set(graph, 0, 3, 3)

    def test_batch_update_round_trip(self, diamond_server):
        handle, _ = diamond_server
        with ServiceClient(handle.host, handle.port) as client:
            client.watch(0, 3, k=3)
            result = client.batch_update(
                [(1, 2, True), (1, 2, False), (2, 1, True)]
            )
            assert result["received"] == 3
            assert result["cancelled"] == 2
            assert result["applied"] == 1

    def test_stats_over_the_wire(self, diamond_server):
        handle, _ = diamond_server
        with ServiceClient(handle.host, handle.port) as client:
            client.query(0, 3, 3)
            stats = client.stats()
            assert stats["served"]["query"] == 1
            assert stats["admission"]["admitted"] == 2
            assert stats["server"]["open_connections"] == 1

    def test_metrics_over_the_wire(self, diamond_server):
        from repro import obs

        handle, _ = diamond_server
        previous = obs.set_enabled(True)
        obs.reset()
        try:
            with ServiceClient(handle.host, handle.port) as client:
                client.query(0, 3, 3)
                result = client.metrics()
                assert result["enabled"] is True
                counters = result["metrics"]["counters"]
                assert counters["service.requests.query"] >= 1
                prom = client.metrics(format="prometheus")
                assert "service_requests_query" in prom["text"]
        finally:
            obs.set_enabled(previous)
            obs.reset()

    def test_two_clients_share_one_graph(self, diamond_server):
        handle, graph = diamond_server
        with ServiceClient(handle.host, handle.port) as a, \
                ServiceClient(handle.host, handle.port) as b:
            a.update(1, 2, True)
            assert set(b.query(0, 3, 3)) == path_set(graph, 0, 3, 3)

    def test_request_ids_are_echoed(self, diamond_server):
        handle, _ = diamond_server
        with ServiceClient(handle.host, handle.port) as client:
            response = client.request("stats")
            assert response.id == 1
            response = client.request("stats")
            assert response.id == 2


class TestStructuredErrors:
    def test_malformed_json_gets_bad_request_not_disconnect(
        self, diamond_server
    ):
        handle, _ = diamond_server
        with socket.create_connection(
            (handle.host, handle.port), timeout=5
        ) as sock:
            fh = sock.makefile("rwb")
            fh.write(b"this is not json\n")
            fh.flush()
            line = fh.readline()
            assert b'"bad_request"' in line
            # connection is still usable
            fh.write(b'{"id": 5, "op": "stats"}\n')
            fh.flush()
            line = fh.readline()
            assert b'"id":5' in line and b'"ok":true' in line

    def test_unknown_op(self, diamond_server):
        handle, _ = diamond_server
        with ServiceClient(handle.host, handle.port) as client:
            with pytest.raises(UnknownOpError):
                client.call("stats_v2")

    def test_id_echoed_on_validation_error(self, diamond_server):
        handle, _ = diamond_server
        with ServiceClient(handle.host, handle.port) as client:
            response = client.request("query", s=1, t=1, k=None)
            assert response.id == 1
            assert not response.ok

    def test_k_beyond_the_distance_table_bound_is_bad_request(
        self, diamond_server
    ):
        handle, _ = diamond_server
        with ServiceClient(handle.host, handle.port) as client:
            response = client.request("query", s=0, t=3, k=254)
            assert not response.ok
            assert response.error["code"] == "bad_request"
            assert "253" in response.error["message"]
            with pytest.raises(BadRequestError):
                client.query(0, 3, 254)
            # the largest accepted k still answers
            assert len(client.query(0, 3, 253)) == 3

    def test_zero_deadline_is_deadline_exceeded(self, diamond_server):
        handle, _ = diamond_server
        with ServiceClient(handle.host, handle.port) as client:
            with pytest.raises(DeadlineExceededError):
                client.query(0, 3, 3, deadline_ms=0)
            # the server is unharmed
            assert client.query(0, 3, 3)

    def test_unwatch_unknown_pair(self, diamond_server):
        handle, _ = diamond_server
        with ServiceClient(handle.host, handle.port) as client:
            with pytest.raises(NotFoundError):
                client.unwatch(5, 6)


class TestAdmissionOverTheWire:
    def test_overload_returns_retry_after(self):
        graph = DynamicDiGraph([(0, 1), (1, 2)])
        engine = PathQueryEngine(graph, default_k=2)
        original = engine.handle

        def slow_handle(op, args):
            if op == "query":
                time.sleep(0.4)
            return original(op, args)

        engine.handle = slow_handle
        handle = serve_in_thread(engine, capacity=1, retry_after_ms=25)
        try:
            slow_result = {}

            def occupant():
                with ServiceClient(handle.host, handle.port) as client:
                    slow_result["paths"] = client.query(0, 2, 2)

            thread = threading.Thread(target=occupant)
            thread.start()
            time.sleep(0.1)  # let the slow query get admitted
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(OverloadedError) as info:
                    client.query(0, 2, 2)
                assert info.value.retry_after_ms == 25
            thread.join(timeout=5)
            assert slow_result["paths"] == [(0, 1, 2)]
        finally:
            handle.stop()

    def test_queued_request_expires_with_structured_error(self):
        graph = DynamicDiGraph([(0, 1), (1, 2)])
        engine = PathQueryEngine(graph, default_k=2)
        original = engine.handle

        def slow_handle(op, args):
            if op == "query":
                time.sleep(0.4)
            return original(op, args)

        engine.handle = slow_handle
        handle = serve_in_thread(engine, capacity=4)
        try:
            thread = threading.Thread(
                target=lambda: ServiceClient(
                    handle.host, handle.port
                ).query(0, 2, 2)
            )
            thread.start()
            time.sleep(0.1)
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(DeadlineExceededError):
                    client.query(0, 2, 2, deadline_ms=50)
            thread.join(timeout=5)
        finally:
            handle.stop()


class TestDeadlineBurstDump:
    def test_deadline_misses_write_one_burst_dump(self, tmp_path):
        graph = DynamicDiGraph([(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
        engine = PathQueryEngine(graph, default_k=3)
        dumps = []

        def write_dump(reason, bundle):
            dumps.append(reason)
            target = tmp_path / f"repro-flight-{reason}.json"
            target.write_text(json.dumps(bundle), encoding="utf-8")

        engine.on_flight_dump = write_dump
        handle = serve_in_thread(engine)
        try:
            with ServiceClient(handle.host, handle.port) as client:
                for _ in range(5):
                    response = client.request(
                        "query", deadline_ms=0, s=0, t=3, k=3
                    )
                    assert response.error["code"] == "deadline_exceeded"
                assert set(client.query(0, 3, 3)) == path_set(graph, 0, 3, 3)
                target = tmp_path / "repro-flight-deadline-burst.json"
                give_up = time.monotonic() + 10.0
                while not target.exists() and time.monotonic() < give_up:
                    time.sleep(0.05)
                assert target.exists()
                # the dump holds an admission slot while it writes, so a
                # stats round trip queued behind it returns once it is done
                client.stats()
        finally:
            handle.stop()
        assert dumps == ["deadline-burst"]
        assert [p.name for p in tmp_path.iterdir()] == [target.name]
        bundle = json.loads(target.read_text(encoding="utf-8"))
        assert check_flight(bundle, reason="deadline-burst") == []


def layered_graph(layers, width):
    """Source 0, ``layers`` full layers of ``width`` vertices, target 1:
    ``width ** layers`` paths of ``layers + 1`` hops."""
    edges = []
    previous = [0]
    for layer in range(layers):
        current = [2 + layer * width + i for i in range(width)]
        edges += [(u, v) for u in previous for v in current]
        previous = current
    edges += [(u, 1) for u in previous]
    return DynamicDiGraph(edges)


class TestFaults:
    def test_over_long_line_gets_bad_request_then_close(self, monkeypatch):
        monkeypatch.setattr(
            server_mod, "PathQueryServer",
            functools.partial(server_mod.PathQueryServer, max_line_bytes=256),
        )
        graph = DynamicDiGraph([(0, 1), (1, 2)])
        handle = serve_in_thread(PathQueryEngine(graph, default_k=2))
        try:
            with socket.create_connection(
                (handle.host, handle.port), timeout=5
            ) as sock:
                fh = sock.makefile("rwb")
                fh.write(b'{"op": "stats", "pad": "' + b"x" * 1024 + b'"}\n')
                fh.flush()
                reply = json.loads(fh.readline())
                assert reply["ok"] is False
                assert reply["error"]["code"] == "bad_request"
                assert "256 bytes" in reply["error"]["message"]
                # Framing is lost: the server closes the connection.
                try:
                    rest = fh.readline()
                except ConnectionResetError:
                    rest = b""
                assert rest == b""
            with ServiceClient(handle.host, handle.port) as client:
                assert client.stats()["graph"]["edges"] == 2
        finally:
            handle.stop()

    def test_client_gone_before_a_large_reply_is_read(self):
        graph = layered_graph(layers=5, width=9)
        expected = path_set(graph, 0, 1, 6)
        assert len(expected) == 9 ** 5
        handle = serve_in_thread(PathQueryEngine(graph.copy(), default_k=6))
        try:
            with socket.create_connection(
                (handle.host, handle.port), timeout=5
            ) as sock:
                sock.sendall(b'{"id": 1, "op": "query", "s": 0, "t": 1}\n')
            with ServiceClient(handle.host, handle.port) as client:
                assert set(client.query(0, 1, 6)) == expected
                assert client.stats()["graph"]["edges"] == graph.num_edges
        finally:
            handle.stop()


class TestShutdown:
    def test_stop_refuses_new_connections(self):
        graph = DynamicDiGraph([(0, 1)])
        handle = serve_in_thread(PathQueryEngine(graph, default_k=2))
        host, port = handle.host, handle.port
        with ServiceClient(host, port) as client:
            client.stats()
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1)

    def test_stop_is_idempotent(self):
        graph = DynamicDiGraph([(0, 1)])
        handle = serve_in_thread(PathQueryEngine(graph, default_k=2))
        handle.stop()
        handle.stop()
