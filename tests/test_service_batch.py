"""Service-level ``batch_query`` tests: wire validation, the byte-identity
equivalence gate, and cache accounting.

The contract under test: a ``batch_query`` answers every member exactly
as sequential ``query`` execution in arrival order would — same bytes,
same cache counters, same ``source`` labels — and an invalid member
fails the whole batch before any member runs.
"""

import json
import random

import pytest

from repro.baselines.bruteforce import path_set
from repro.graph.digraph import DynamicDiGraph
from repro.service.client import ServiceClient
from repro.service.engine import PathQueryEngine
from repro.service.protocol import (
    BadRequestError,
    decode_paths,
    decode_request,
)
from repro.service.server import serve_in_thread
from tests.conftest import make_random_graph


def _diamond():
    return DynamicDiGraph(
        [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (3, 4), (1, 4)]
    )


def _request(op, **fields):
    payload = {"id": 1, "op": op}
    payload.update(fields)
    return decode_request(json.dumps(payload))


class TestProtocolValidation:
    def test_batch_query_decodes_triples(self):
        request = _request("batch_query", queries=[[0, 1, 3], ["a", "b", 2]])
        assert request.op == "batch_query"
        assert request.args["queries"] == [(0, 1, 3), ("a", "b", 2)]

    @pytest.mark.parametrize(
        "queries",
        [
            [],              # empty batch
            "nope",          # not a list
            [[0, 1]],        # wrong arity
            [[0, 1, 3, 9]],  # wrong arity
            [[0, 1, -1]],    # negative k
            [[0, 1, True]],  # bool is not a hop count
            [[0, 1, "3"]],   # non-int k
            [None],          # not a triple at all
        ],
    )
    def test_bad_queries_rejected(self, queries):
        with pytest.raises(BadRequestError):
            _request("batch_query", queries=queries)

    def test_missing_queries_field_rejected(self):
        with pytest.raises(BadRequestError):
            _request("batch_query")


class TestEquivalenceGate:
    """Fixed-seed byte-identity: batch == sequential, to the last byte."""

    def _twin_engines(self, rng, cache_budget_bytes):
        graph = make_random_graph(rng, n_lo=7, n_hi=9, max_edges=22)
        sequential = PathQueryEngine(
            graph.copy(), cache_budget_bytes=cache_budget_bytes
        )
        batched = PathQueryEngine(
            graph.copy(), cache_budget_bytes=cache_budget_bytes
        )
        return graph, sequential, batched

    def _assert_equivalent(self, sequential, batched, triples):
        expected = [
            sequential.handle("query", {"s": s, "t": t, "k": k})
            for s, t, k in triples
        ]
        out = batched.handle(
            "batch_query", {"queries": [list(t) for t in triples]}
        )
        assert len(out["results"]) == len(expected)
        for i, (want, got) in enumerate(zip(expected, out["results"])):
            assert json.dumps(want, sort_keys=True) == json.dumps(
                got, sort_keys=True
            ), f"member {i} diverged from sequential execution"
        seq_stats = sequential.handle("stats", {})
        bat_stats = batched.handle("stats", {})
        assert seq_stats["cache"] == bat_stats["cache"]
        # the batch envelope is tallied separately; member credit matches
        assert (
            seq_stats["served"]["query"] == bat_stats["served"]["query"]
        )
        return out

    def test_random_batches_byte_identical(self):
        rng = random.Random(1234)
        for round_no in range(8):
            budget = rng.choice([1, 4 << 10, 4 << 20])
            graph, sequential, batched = self._twin_engines(rng, budget)
            vertices = list(graph.vertices())
            triples = []
            while len(triples) < 12:
                s, t = rng.sample(vertices, 2)
                triples.append((s, t, rng.randint(1, 4)))
                if triples and rng.random() < 0.3:
                    triples.append(rng.choice(triples))  # force duplicates
            self._assert_equivalent(sequential, batched, triples[:12])

    def test_singleton_batch_matches_plain_query(self):
        rng = random.Random(7)
        _, sequential, batched = self._twin_engines(rng, 4 << 20)
        out = self._assert_equivalent(sequential, batched, [(0, 1, 3)])
        assert set(out) == {"results"}

    def test_watched_members_byte_identical(self):
        graph = _diamond()
        sequential = PathQueryEngine(graph.copy(), default_k=3)
        batched = PathQueryEngine(graph.copy(), default_k=3)
        for engine in (sequential, batched):
            engine.handle("watch", {"s": 0, "t": 3, "k": 3})
        triples = [(0, 3, 3), (0, 4, 3), (0, 3, 3), (0, 3, 2)]
        out = self._assert_equivalent(sequential, batched, triples)
        sources = [member["source"] for member in out["results"]]
        assert sources[0] == "watched"
        assert sources[3] != "watched"  # same pair, different k

    def test_updates_between_batches_stay_equivalent(self):
        rng = random.Random(42)
        graph, sequential, batched = self._twin_engines(rng, 4 << 20)
        vertices = list(graph.vertices())
        for _ in range(5):
            u, v = rng.sample(vertices, 2)
            insert = not sequential.graph.has_edge(u, v)
            for engine in (sequential, batched):
                engine.handle("update", {"u": u, "v": v, "insert": insert})
            triples = [
                (*rng.sample(vertices, 2), rng.randint(1, 4))
                for _ in range(6)
            ]
            self._assert_equivalent(sequential, batched, triples)

    def test_members_answer_as_sequential_queries(self):
        engine = PathQueryEngine(_diamond(), default_k=3)
        engine.handle("watch", {"s": 0, "t": 3, "k": 3})
        triples = [(0, 3, 3), (0, 3, 2), (1, 3, 2), (0, 3, 2)]
        out = engine.handle(
            "batch_query", {"queries": [list(t) for t in triples]}
        )
        assert [m["source"] for m in out["results"]] == [
            "watched", "miss", "miss", "hit"
        ]
        for (s, t, k), member in zip(triples, out["results"]):
            assert set(decode_paths(member["paths"])) == path_set(
                engine.graph, s, t, k
            )
            assert member["count"] == len(member["paths"])
        served = engine.op_stats()["served"]
        assert served["query"] == len(triples)
        assert served["batch_query"] == 1

    def test_invalid_member_is_a_bad_request(self):
        engine = PathQueryEngine(_diamond())
        with pytest.raises(BadRequestError):
            engine.handle("batch_query", {"queries": [(0, 3, 3), (1, 1, 2)]})

    def test_every_member_is_checked_before_any_runs(self):
        # A k beyond the distance-table bound in a later member must
        # fail the batch before the earlier members build anything.
        engine = PathQueryEngine(_diamond(), default_k=3)
        with pytest.raises(BadRequestError, match="253"):
            engine.handle(
                "batch_query", {"queries": [[0, 3, 3], [0, 2, 254]]}
            )
        stats = engine.op_stats()
        assert stats["cache"]["misses"] == 0
        assert stats["cache"]["entries"] == 0
        assert "query" not in stats["served"]


class TestCacheAccounting:
    """Batching must not skew per-query cache counters.

    An executor that answered duplicate members from a per-batch memo
    *without* touching the cache would return the right paths but
    under-count hits and corrupt LRU recency — these tests are the
    tripwire (they fail against such an implementation).
    """

    def test_duplicate_members_still_hit_the_cache(self):
        engine = PathQueryEngine(_diamond(), cache_budget_bytes=4 << 20)
        out = engine.handle(
            "batch_query",
            {"queries": [(0, 3, 3), (0, 3, 3), (0, 3, 3)]},
        )
        stats = engine.handle("stats", {})["cache"]
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert [m["source"] for m in out["results"]] == [
            "miss", "hit", "hit"
        ]

    def test_lru_recency_matches_sequential_under_eviction(self):
        # A budget sized for ~2 entries: recency decides who is evicted,
        # so any reordering or skipped touch diverges the counters.
        graph = _diamond()
        probe = PathQueryEngine(graph.copy())
        probe.handle("query", {"s": 0, "t": 3, "k": 3})
        one_entry = probe.handle("stats", {})["cache"]["current_bytes"]
        budget = int(one_entry * 2.5)

        # A key evicts only once it has been asked for more often than
        # its victims, so recency decides whether (1,4,2) gets in: it
        # can displace (0,4,3), asked once, but not (0,3,3).
        triples = [
            (0, 3, 3), (0, 3, 3), (0, 3, 3), (0, 4, 3),  # fills
            (0, 3, 3),                        # refresh: (0,4,3) is now LRU
            (1, 4, 2), (1, 4, 2), (1, 4, 2),  # refused twice, then evicts
            (0, 4, 3),
        ]
        sequential = PathQueryEngine(graph.copy(), cache_budget_bytes=budget)
        batched = PathQueryEngine(graph.copy(), cache_budget_bytes=budget)
        for s, t, k in triples:
            sequential.handle("query", {"s": s, "t": t, "k": k})
        batched.handle("batch_query", {"queries": [list(t) for t in triples]})
        seq_cache = sequential.handle("stats", {})["cache"]
        bat_cache = batched.handle("stats", {})["cache"]
        assert seq_cache == bat_cache
        assert seq_cache["evictions"] > 0  # the scenario exercised eviction


class TestClientAndLoadgen:
    def test_explicit_batch_query_round_trip(self):
        graph = _diamond()
        engine = PathQueryEngine(graph, default_k=3)
        handle = serve_in_thread(engine)
        try:
            with ServiceClient(handle.host, handle.port) as client:
                out = client.batch_query([(0, 3, 3), (0, 4, 3), (0, 3, 3)])
            assert set(out) == {"results"}
            assert [set(m["paths"]) for m in out["results"]] == [
                path_set(graph, 0, 3, 3),
                path_set(graph, 0, 4, 3),
                path_set(graph, 0, 3, 3),
            ]
            assert [m["source"] for m in out["results"]] == [
                "miss", "miss", "hit"
            ]
        finally:
            handle.stop()
