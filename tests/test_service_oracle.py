"""Differential oracle for the serving engine.

Hypothesis drives a :class:`PathQueryEngine` through generated streams
of ``query``, ``batch_query``, ``watch``, ``unwatch``, ``update`` and
``batch_update`` requests — small graphs, ``k <= 4``, a few hot edges
the stream keeps flipping, queries drawn often from a few hot triples,
and cache budgets small enough to evict, to bypass and to refuse an
admission — and checks every reply against brute force on a mirror
graph:

- query, batch member and watch answers equal
  :func:`~repro.baselines.bruteforce.path_set`;
- update deltas, and ``batch_update``'s net new and deleted paths,
  equal the set differences of the watched results;
- ``source`` is ``watched`` for a watched ``(s, t, k)``, and otherwise
  ``hit`` exactly when the key was cached before the call;
- a twin engine that receives every ``batch_query`` as single
  ``query`` requests returns byte-identical replies and keeps the same
  cache (counters, keys, LRU order);
- the cache's bytes never exceed its budget, and invalid requests move
  no cache counter.
"""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.bruteforce import path_set
from repro.core.distance import MAX_HORIZON
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate
from repro.service.engine import PathQueryEngine
from repro.service.protocol import (
    AlreadyWatchedError,
    BadRequestError,
    NotFoundError,
    decode_paths,
)

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Entries on these graphs size 256-768 bytes: 1 bypasses everything,
#: the middle budgets hold one to a few entries, the last holds all.
BUDGETS = (1, 300, 700, 1200, 4 << 20)

MAX_K = 4


@st.composite
def sessions(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pair, max_size=16))
    budget = draw(st.sampled_from(BUDGETS))
    triple = st.tuples(vertex, vertex, st.integers(0, MAX_K)).filter(
        lambda q: q[0] != q[1]
    )
    # Repeated keys give the admission rule counts to compare.
    query = st.one_of(
        st.sampled_from(draw(st.lists(triple, min_size=1, max_size=4))),
        triple,
    )
    bad_triple = st.one_of(
        st.tuples(vertex, st.integers(0, MAX_K)).map(
            lambda q: (q[0], q[0], q[1])
        ),
        pair.map(lambda p: (p[0], p[1], MAX_HORIZON + 1)),
    )
    bad_batch = st.tuples(
        st.lists(triple, max_size=3), bad_triple, st.lists(triple, max_size=2)
    ).map(lambda parts: parts[0] + [parts[1]] + parts[2])
    hot = st.sampled_from(draw(st.lists(pair, min_size=1, max_size=3)))
    update = st.tuples(st.one_of(hot, pair), st.booleans())
    op = st.one_of(
        st.tuples(st.just("query"), query),
        st.tuples(st.just("query"), bad_triple),
        st.tuples(
            st.just("batch_query"), st.lists(query, min_size=1, max_size=4)
        ),
        st.tuples(st.just("batch_query"), bad_batch),
        st.tuples(st.just("watch"), triple),
        st.tuples(st.just("unwatch"), pair),
        st.tuples(st.just("update"), update),
        st.tuples(
            st.just("batch_update"), st.lists(update, min_size=1, max_size=6)
        ),
    )
    ops = draw(st.lists(op, min_size=6, max_size=30))
    return n, edges, budget, ops


def check_paths(raw, count, expected):
    paths = decode_paths(raw)
    assert len(paths) == len(set(paths)) == count
    assert set(paths) == expected


def checked_query(engine, mirror, watched, s, t, k):
    """One ``query`` through ``engine``, checked against brute force."""
    key = (s, t, k)
    cached_before = key in engine.cache
    reply = engine.handle("query", {"s": s, "t": t, "k": k})
    check_paths(reply["paths"], reply["count"], path_set(mirror, s, t, k))
    if watched.get((s, t)) == k:
        assert reply["source"] == "watched"
    elif cached_before:
        assert reply["source"] == "hit"
    else:
        assert reply["source"] in ("miss", "bypass")
        assert (key in engine.cache) == (reply["source"] == "miss")
    return reply


def watched_results(mirror, watched):
    return {
        pair: path_set(mirror, pair[0], pair[1], k)
        for pair, k in watched.items()
    }


def apply_to_mirror(mirror, u, v, insert):
    if mirror.has_edge(u, v) != insert:
        mirror.apply_update(EdgeUpdate(u, v, insert))
        return True
    return False


def run_session(n, edges, budget, ops):
    mirror = DynamicDiGraph(edges, vertices=range(n))
    engine = PathQueryEngine(mirror.copy(), cache_budget_bytes=budget)
    # The twin answers every batch member as its own ``query``.
    twin = PathQueryEngine(mirror.copy(), cache_budget_bytes=budget)
    both = (engine, twin)
    watched = {}
    for kind, arg in ops:
        if kind == "query":
            s, t, k = arg
            if s == t or k > MAX_HORIZON:
                stats = engine.op_stats()["cache"]
                with pytest.raises(BadRequestError):
                    engine.handle("query", {"s": s, "t": t, "k": k})
                assert engine.op_stats()["cache"] == stats
                continue
            replies = [
                checked_query(e, mirror, watched, s, t, k) for e in both
            ]
            assert replies[0] == replies[1]
        elif kind == "batch_query":
            queries = [list(q) for q in arg]
            if any(s == t or k > MAX_HORIZON for s, t, k in arg):
                stats = engine.op_stats()
                with pytest.raises(BadRequestError):
                    engine.handle("batch_query", {"queries": queries})
                after = engine.op_stats()
                assert after["cache"] == stats["cache"]
                assert after["served"].get("query") == stats["served"].get(
                    "query"
                )
                continue
            reply = engine.handle("batch_query", {"queries": queries})
            sequential = [
                checked_query(twin, mirror, watched, s, t, k)
                for s, t, k in arg
            ]
            assert json.dumps(reply) == json.dumps({"results": sequential})
        elif kind == "watch":
            s, t, k = arg
            if (s, t) in watched:
                for e in both:
                    with pytest.raises(AlreadyWatchedError):
                        e.handle("watch", {"s": s, "t": t, "k": k})
                continue
            for e in both:
                reply = e.handle("watch", {"s": s, "t": t, "k": k})
                check_paths(
                    reply["paths"], reply["count"], path_set(mirror, s, t, k)
                )
            watched[(s, t)] = k
        elif kind == "unwatch":
            s, t = arg
            for e in both:
                if (s, t) in watched:
                    assert e.handle("unwatch", {"s": s, "t": t}) == {
                        "removed": True
                    }
                else:
                    with pytest.raises(NotFoundError):
                        e.handle("unwatch", {"s": s, "t": t})
            watched.pop((s, t), None)
        elif kind == "update":
            (u, v), insert = arg
            before = watched_results(mirror, watched)
            changed = apply_to_mirror(mirror, u, v, insert)
            after = watched_results(mirror, watched)
            expected = {
                pair: (after[pair] - before[pair]) if insert
                else (before[pair] - after[pair])
                for pair in watched
            }
            expected = {pair: d for pair, d in expected.items() if d}
            for e in both:
                reply = e.handle("update", {"u": u, "v": v, "insert": insert})
                assert reply["changed"] == changed
                got = {}
                for entry in reply["pairs"]:
                    paths = decode_paths(entry["paths"])
                    assert len(paths) == len(set(paths)) == entry["count"]
                    got[(entry["s"], entry["t"])] = set(paths)
                assert got == expected
        else:  # batch_update
            updates = [(u, v, insert) for (u, v), insert in arg]
            before = watched_results(mirror, watched)
            for u, v, insert in updates:
                apply_to_mirror(mirror, u, v, insert)
            after = watched_results(mirror, watched)
            expected = {
                pair: (after[pair] - before[pair], before[pair] - after[pair])
                for pair in watched
            }
            expected = {
                pair: d for pair, d in expected.items() if d != (set(), set())
            }
            for e in both:
                reply = e.handle("batch_update", {"updates": updates})
                assert reply["received"] == len(updates)
                got = {}
                for entry in reply["pairs"]:
                    new = decode_paths(entry["new_paths"])
                    deleted = decode_paths(entry["deleted_paths"])
                    assert entry["net"] == len(new) - len(deleted)
                    got[(entry["s"], entry["t"])] = (set(new), set(deleted))
                assert got == expected
        for e in both:
            assert set(e.graph.edges()) == set(mirror.edges())
            assert e.cache.stats().current_bytes <= budget
        assert engine.cache.stats() == twin.cache.stats()
        assert list(engine.cache.keys()) == list(twin.cache.keys())
    # Every entry still cached answers as a hit, and answers right.
    for s, t, k in list(engine.cache.keys()):
        for e in both:
            checked_query(e, mirror, watched, s, t, k)


@given(sessions())
@SETTINGS
def test_engine_replies_match_bruteforce(case):
    run_session(*case)
