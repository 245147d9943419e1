"""Property-based tests (hypothesis) for the core invariants."""

from contextlib import ExitStack
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.enumeration as enumeration_mod
import repro.core.index as index_mod
from repro import obs
from repro.baselines.bruteforce import path_set
from repro.core.construction import build_index
from repro.core.distance import DistanceMap
from repro.core.enumeration import (
    count_full,
    enumerate_full,
    enumerate_full_list,
)
from repro.core.enumerator import CpeEnumerator
from repro.core.index import BitSpace, IndexMemoryStats, PathBuckets
from repro.core.monitor import MultiPairMonitor
from repro.core.paths import hops, is_simple
from repro.core.plan import balanced_plan
from repro.core.serialize import restore, snapshot
from repro.core.verify import verify_enumerator
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate
from repro.obs.explain import recording

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_n=8, max_edges=18):
    """A small random digraph as (n, edge list)."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=max_edges))
    return n, edges


@st.composite
def graph_queries(draw):
    n, edges = draw(graphs())
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, n - 1).filter(lambda v: v != s))
    k = draw(st.integers(1, 6))
    return n, edges, s, t, k


@st.composite
def update_streams(draw):
    n, edges, s, t, k = draw(graph_queries())
    pairs = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda e: e[0] != e[1])
    stream = draw(st.lists(pairs, max_size=12))
    return n, edges, s, t, k, stream


def build(n, edges):
    return DynamicDiGraph(edges, vertices=range(n))


@given(graph_queries())
@SETTINGS
def test_startup_equals_bruteforce(case):
    n, edges, s, t, k = case
    g = build(n, edges)
    cpe = CpeEnumerator(g.copy(), s, t, k)
    got = cpe.startup()
    assert len(got) == len(set(got))
    assert set(got) == path_set(g, s, t, k)


@given(update_streams())
@SETTINGS
def test_update_stream_deltas_are_exact(case):
    n, edges, s, t, k, stream = case
    g = build(n, edges)
    cpe = CpeEnumerator(g, s, t, k)
    current = path_set(g, s, t, k)
    for u, v in stream:
        if g.has_edge(u, v):
            result = cpe.delete_edge(u, v)
            fresh = path_set(g, s, t, k)
            assert set(result.paths) == current - fresh
        else:
            result = cpe.insert_edge(u, v)
            fresh = path_set(g, s, t, k)
            assert set(result.paths) == fresh - current
        assert len(result.paths) == len(set(result.paths))
        current = fresh
    assert set(cpe.startup()) == current


@given(update_streams())
@SETTINGS
def test_index_invariant_after_stream(case):
    n, edges, s, t, k, stream = case
    g = build(n, edges)
    cpe = CpeEnumerator(g, s, t, k)
    for u, v in stream:
        if g.has_edge(u, v):
            cpe.delete_edge(u, v)
        else:
            cpe.insert_edge(u, v)
    fresh = build_index(g, s, t, k, forced_plan=cpe.plan)
    assert cpe.index.left.as_dict() == fresh.index.left.as_dict()
    assert cpe.index.right.as_dict() == fresh.index.right.as_dict()
    assert cpe.index.direct_edge == fresh.index.direct_edge


@given(update_streams())
@SETTINGS
def test_distance_maps_stay_exact(case):
    n, edges, s, t, k, stream = case
    g = build(n, edges)
    d = DistanceMap(g, s, horizon=k)
    for u, v in stream:
        if g.has_edge(u, v):
            g.remove_edge(u, v)
            d.tighten_delete(u, v)
        else:
            g.add_edge(u, v)
            d.relax_insert(u, v)
        assert d.is_consistent()


@st.composite
def labelled_monitor_streams(draw):
    """String labels whose interned ids differ from any label order.

    ``n`` labels are registered up front in shuffled order; ``extra``
    more first appear in the update stream, so the graph registers them
    mid-stream through an insertion.  Two watched pairs: one over
    registered labels, and one whose source is an ``extra`` label, not
    registered at watch time but inserted into the stream.
    """
    n = draw(st.integers(3, 7))
    extra = draw(st.integers(1, 3))
    labels = [f"v{i}" for i in range(n + extra)]
    registered = draw(st.permutations(labels[:n]))

    def edge_lists(pool_size, max_size):
        pairs = st.tuples(
            st.integers(0, pool_size - 1), st.integers(0, pool_size - 1)
        ).filter(lambda e: e[0] != e[1])
        return st.lists(pairs, max_size=max_size).map(
            lambda es: [(labels[a], labels[b]) for a, b in es]
        )

    edges = draw(edge_lists(n, 16))
    stream = draw(edge_lists(n + extra, 14))
    k = draw(st.integers(2, 5))
    s1, t1, t2 = draw(st.permutations(labels[:n]))[:3]
    s2 = labels[n + draw(st.integers(0, extra - 1))]
    # One insertion somewhere in the stream registers the second source.
    hook = (s2, labels[draw(st.integers(0, n - 1))])
    stream.insert(draw(st.integers(0, len(stream))), hook)
    return registered, edges, stream, k, [(s1, t1), (s2, t2)]


@given(labelled_monitor_streams())
@SETTINGS
def test_gated_monitor_is_exact_on_labels_that_are_not_ids(case):
    registered, edges, stream, k, pairs = case
    g = DynamicDiGraph(edges, vertices=registered)
    monitor = MultiPairMonitor(g, k)
    for s, t in pairs:
        monitor.watch(s, t)
    assert pairs[1][0] not in g  # watched before it is registered
    for u, v in stream:
        update = EdgeUpdate(u, v, not g.has_edge(u, v))
        before = {}
        for s, t in pairs:
            cpe = monitor.enumerator_for(s, t)
            # The gate's test; it reads the same before map repair.
            relevant = cpe.dist_s.get(u) + 1 + cpe.dist_t.get(v) <= k
            before[(s, t)] = (
                path_set(g, s, t, k),
                relevant,
                cpe.index.left.as_dict(),
                cpe.index.right.as_dict(),
            )
        results = monitor.apply(update)
        for s, t in pairs:
            cpe = monitor.enumerator_for(s, t)
            old_paths, relevant, left, right = before[(s, t)]
            new_paths = path_set(g, s, t, k)
            result = results[(s, t)]
            assert len(result.paths) == len(set(result.paths))
            assert set(result.paths) == (
                new_paths - old_paths if update.insert
                else old_paths - new_paths
            )
            assert cpe.dist_s.is_consistent() and cpe.dist_t.is_consistent()
            fresh = build_index(g, s, t, k, forced_plan=cpe.plan)
            assert cpe.index.left.as_dict() == fresh.index.left.as_dict()
            assert cpe.index.right.as_dict() == fresh.index.right.as_dict()
            assert cpe.index.direct_edge == fresh.index.direct_edge
            assert result.record.relevant == relevant
            if not relevant:
                assert result.paths == []
                assert cpe.index.left.as_dict() == left
                assert cpe.index.right.as_dict() == right


@st.composite
def watched_streams(draw):
    """2-4 watched pairs on at most 10 vertices with ``k <= 5``, and an
    update stream that mixes random edges with repeated toggles of a
    few hot edges (each toggle of a hot edge undoes the previous one)."""
    n = draw(st.integers(4, 10))
    vertex = st.integers(0, n - 1)
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(edge, max_size=3 * n))
    k = draw(st.integers(1, 5))
    pairs = draw(st.lists(edge, min_size=2, max_size=4, unique=True))
    hot = draw(st.lists(edge, min_size=1, max_size=3))
    stream = draw(st.lists(st.one_of(edge, st.sampled_from(hot)), max_size=16))
    return n, edges, k, pairs, stream


def capped_bfs(neighbors, source, cap):
    """Hop distances from ``source`` up to ``cap`` hops, by plain BFS."""
    dist = {source: 0}
    frontier = [source]
    for d in range(1, cap + 1):
        reached = []
        for w in frontier:
            for y in neighbors(w):
                if y not in dist:
                    dist[y] = d
                    reached.append(y)
        frontier = reached
    return dist


@given(watched_streams())
@settings(SETTINGS, max_examples=150)
def test_every_pair_update_is_exact(case):
    """After every step of a monitored stream: each map holds exactly
    the distances of at most ``k - 1`` hops, each index equals a fresh
    build, each delta equals brute force, and each pair-update that
    moved no map entry and failed the relevance test is quiet."""
    n, edges, k, pairs, stream = case
    g = build(n, edges)
    monitor = MultiPairMonitor(g, k)
    for s, t in pairs:
        monitor.watch(s, t)
    for u, v in stream:
        insert = not g.has_edge(u, v)
        before = {}
        for s, t in pairs:
            cpe = monitor.enumerator_for(s, t)
            before[(s, t)] = (
                path_set(g, s, t, k),
                dict(cpe.dist_s.known()),
                dict(cpe.dist_t.known()),
            )
        results = monitor.apply(EdgeUpdate(u, v, insert))
        for s, t in pairs:
            cpe = monitor.enumerator_for(s, t)
            old_paths, old_s, old_t = before[(s, t)]
            dist_s = dict(cpe.dist_s.known())
            dist_t = dict(cpe.dist_t.known())
            assert dist_s == capped_bfs(g.out_neighbors, s, k - 1)
            assert dist_t == capped_bfs(g.in_neighbors, t, k - 1)
            fresh = build_index(g, s, t, k, forced_plan=cpe.plan)
            assert cpe.index.left.as_dict() == fresh.index.left.as_dict()
            assert cpe.index.right.as_dict() == fresh.index.right.as_dict()
            assert cpe.index.direct_edge == fresh.index.direct_edge
            new_paths = path_set(g, s, t, k)
            result = results[(s, t)]
            assert len(result.paths) == len(set(result.paths))
            assert set(result.paths) == (
                new_paths - old_paths if insert else old_paths - new_paths
            )
            # Beyond k - 1 hops a distance reads k; the test is the same
            # before and after the update.
            relevant = dist_s.get(u, k) + 1 + dist_t.get(v, k) <= k
            record = result.record
            assert record.changed and record.relevant == relevant
            if not relevant and (old_s, old_t) == (dist_s, dist_t):
                assert result.paths == []
                assert (
                    record.relaxed_s, record.relaxed_t,
                    record.tightened_s, record.tightened_t,
                ) == (0, 0, 0, 0)
                assert len(record.left_delta) == len(record.right_delta) == 0
                assert not record.direct_changed


def recounted_stats(index):
    """``memory_stats()`` recomputed by walking every stored path."""
    left = list(index.left.paths())
    right = list(index.right.paths())
    return IndexMemoryStats(
        left_paths=len(left),
        right_paths=len(right),
        vertex_slots=sum(len(p) for p in left + right),
    )


@given(update_streams())
@SETTINGS
def test_memory_stats_equal_full_recount(case):
    n, edges, s, t, k, stream = case
    g = build(n, edges)
    cpe = CpeEnumerator(g, s, t, k)
    assert cpe.memory_stats() == recounted_stats(cpe.index)
    for u, v in stream:
        if g.has_edge(u, v):
            cpe.delete_edge(u, v)
        else:
            cpe.insert_edge(u, v)
        assert cpe.memory_stats() == recounted_stats(cpe.index)


def paths_of(length):
    """Simple paths with ``length`` hops over a small vertex range."""
    return st.lists(
        st.integers(0, 6), min_size=length + 1, max_size=length + 1,
        unique=True,
    ).map(tuple)


@given(st.data())
@SETTINGS
def test_bucket_counters_track_every_write(data):
    buckets = PathBuckets()
    bits = BitSpace()
    stored = set()

    def assert_counters():
        assert len(buckets) == len(stored)
        assert buckets.vertex_slots == sum(len(p) for p in stored)
        assert set(buckets.paths()) == stored
        assert dict(buckets.masks()) == {p: bits.mask(p) for p in stored}

    for _ in range(data.draw(st.integers(0, 30))):
        kind = data.draw(st.sampled_from(("add", "remove", "bulk")))
        length = data.draw(st.integers(1, 4))
        before = (set(stored), buckets.version)
        if kind == "remove" and stored:
            path = data.draw(st.sampled_from(sorted(stored)))
            assert buckets.remove(path[-1], path)
            stored.discard(path)
        elif kind == "bulk":
            # The construction level search's write: a whole new level
            # of paths with their masks.
            if buckets.bucket(length):
                continue
            level = data.draw(st.lists(paths_of(length), max_size=4))
            bucket = {}
            for path in level:
                bucket.setdefault(path[-1], set()).add(path)
            buckets.add_level(
                length, bucket, {p: bits.mask(p) for p in level}
            )
            stored.update(level)
        else:
            path = data.draw(paths_of(length))
            assert buckets.add(path[-1], path, bits.mask(path)) == (
                path not in stored
            )
            stored.add(path)
        assert_counters()
        # The version moves exactly when the stored paths do: it keys
        # the join program's cache.
        assert (buckets.version != before[1]) == (stored != before[0])
    # Drain, so every bucket loses its last path.
    for path in sorted(stored):
        assert buckets.remove(path[-1], path)
        stored.discard(path)
        assert_counters()
    assert buckets.vertex_slots == 0
    assert buckets.as_dict() == {}


@given(graph_queries())
@SETTINGS
def test_stored_partials_are_admissible(case):
    n, edges, s, t, k = case
    g = build(n, edges)
    result = build_index(g, s, t, k)
    l, r = result.index.plan.l, result.index.plan.r
    for length, vertex, path in result.index.left.entries():
        assert is_simple(path)
        assert path[0] == s and path[-1] == vertex and t not in path
        assert 1 <= hops(path) == length <= l
        assert length + result.dist_t.get(vertex) <= k
    for length, vertex, path in result.index.right.entries():
        assert is_simple(path)
        assert path[0] == vertex and path[-1] == t and s not in path
        assert 1 <= hops(path) == length <= r
        assert length + result.dist_s.get(vertex) <= k


@given(st.integers(min_value=2, max_value=12))
def test_balanced_plan_properties(k):
    plan = balanced_plan(k)
    assert sorted(i + j for i, j in plan) == list(range(2, k + 1))
    assert plan.l + plan.r == k
    assert abs(plan.l - plan.r) <= 1


@given(graph_queries())
@SETTINGS
def test_inverse_updates_restore_result(case):
    n, edges, s, t, k = case
    g = build(n, edges)
    cpe = CpeEnumerator(g, s, t, k)
    before = set(cpe.startup())
    target = next(iter(g.edges()), None)
    if target is None:
        return
    u, v = target
    deleted = cpe.delete_edge(u, v)
    restored = cpe.insert_edge(u, v)
    assert set(deleted.paths) == set(restored.paths)
    assert set(cpe.startup()) == before


def join_recount(index):
    """Per plan pair ``(cut_vertices, probes, emitted)``, recounted over
    the dict buckets with a set-based disjointness test."""
    counts = {}
    for i, j in index.plan:
        left, right = index.left.bucket(i), index.right.bucket(j)
        cut = [v for v in left if v in right]
        counts[(i, j)] = (
            len(cut),
            sum(len(left[v]) * len(right[v]) for v in cut),
            sum(
                1
                for v in cut
                for lp in left[v]
                for rp in right[v]
                if set(lp).isdisjoint(rp[1:])
            ),
        )
    return counts


#: The three full-join entry points, each returning the path sequence.
JOIN_ENTRY_POINTS = {
    "list": enumerate_full_list,
    "generator": lambda index: list(enumerate_full(index)),
    "count": count_full,
}


def check_join_modes(graph, cpe):
    """Every entry point under obs off / on / EXPLAIN: same answer, equal
    to brute force, and per-pair accounting equal to the recount."""
    index = cpe.index
    reference = enumerate_full_list(index)
    assert len(reference) == len(set(reference))
    assert set(reference) == path_set(graph, cpe.s, cpe.t, cpe.k)
    recount = join_recount(index)
    live = {
        (i, j): counts
        for (i, j), counts in recount.items()
        if index.left.bucket(i) and index.right.bucket(j)
    }
    for name, run in JOIN_ENTRY_POINTS.items():
        want = len(reference) if name == "count" else reference
        assert run(index) == want, name

        previous = obs.set_enabled(True)
        obs.reset()
        try:
            assert run(index) == want, name
            snapshot = obs.snapshot()
        finally:
            obs.set_enabled(previous)
            obs.reset()
        counters = snapshot["counters"]
        assert counters["enumeration.paths"] == len(reference)
        joins = {
            key: value
            for key, value in counters.items()
            if key.startswith("enumeration.join.")
        }
        assert joins == {
            f"enumeration.join.{i}x{j}.paths": counts[2]
            for (i, j), counts in live.items()
        }
        histogram = snapshot["histograms"].get(
            "enumeration.join_pair_output", {"count": 0, "total": 0}
        )
        assert (histogram["count"], histogram["total"]) == (
            len(live), sum(counts[2] for counts in live.values())
        )

        with recording() as rec:
            assert run(index) == want, name
        assert [
            (p.i, p.j, p.cut_vertices, p.probes, p.emitted)
            for p in rec.join_pairs
        ] == [(i, j) + recount[(i, j)] for i, j in index.plan]


@pytest.mark.parametrize(
    "thresholds",
    [None, (0, 1), (0, enumeration_mod._NP_PROBE_MIN)],
    ids=["default", "bucket-steps-block-probe", "bucket-steps-scalar"],
)
@given(update_streams())
@SETTINGS
def test_join_modes_agree_and_account_exactly(thresholds, case):
    n, edges, s, t, k, stream = case
    with ExitStack() as patches:
        if thresholds is not None:
            # (PACK_FLAT_STEP_MAX, _NP_PROBE_MIN) patched low, so small
            # graphs also take bucket steps and, with numpy, the block
            # probe.
            flat_max, np_min = thresholds
            patches.enter_context(
                mock.patch.object(index_mod, "PACK_FLAT_STEP_MAX", flat_max)
            )
            patches.enter_context(
                mock.patch.object(enumeration_mod, "_NP_PROBE_MIN", np_min)
            )
        g = build(n, edges)
        cpe = CpeEnumerator(g, s, t, k)
        check_join_modes(g, cpe)
        for u, v in stream:
            if g.has_edge(u, v):
                cpe.delete_edge(u, v)
            else:
                cpe.insert_edge(u, v)
            check_join_modes(g, cpe)


@st.composite
def restore_streams(draw):
    """A graph, a query, an update stream mixing random pairs (mostly
    gated out) with edges at ``s`` or ``t`` (mostly relevant), and the
    stream position of one snapshot restore.

    Graphs are dense and ``k`` is at least 4, so insertions also write
    paths that extend a new edge past its first hop (a maintenance
    write path that sparse graphs rarely reach).
    """
    n = draw(st.integers(5, 8))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(
        st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
        min_size=8, max_size=24,
    ))
    s = draw(vertex)
    t = draw(vertex.filter(lambda v: v != s))
    k = draw(st.integers(4, 6))
    pairs = st.one_of(
        st.tuples(vertex, vertex),
        st.tuples(st.just(s), vertex),
        st.tuples(vertex, st.just(t)),
    ).filter(lambda e: e[0] != e[1])
    stream = draw(st.lists(pairs, max_size=12))
    restore_at = draw(st.integers(0, len(stream)))
    return n, edges, s, t, k, stream, restore_at


def check_program(cpe):
    """The audit is clean, and the cached join program answers what a
    program rebuilt with every cache dropped answers: brute force."""
    assert verify_enumerator(cpe) == []
    index = cpe.index
    cached = enumerate_full_list(index)
    cached_count = count_full(index)
    program = index.packed_program()
    index._program = None  # drop the program and its numpy word cache
    rebuilt = enumerate_full_list(index)
    assert index.packed_program() is not program
    assert cached == rebuilt
    assert cached_count == count_full(index) == len(rebuilt)
    assert set(rebuilt) == path_set(cpe.graph, cpe.s, cpe.t, cpe.k)


@pytest.mark.parametrize(
    "thresholds", [None, (0, 1)], ids=["default", "bucket-steps-block-probe"]
)
@given(restore_streams())
@SETTINGS
def test_cached_program_matches_rebuild_through_updates_and_restore(
    thresholds, case
):
    n, edges, s, t, k, stream, restore_at = case
    with ExitStack() as patches:
        if thresholds is not None:
            flat_max, np_min = thresholds
            patches.enter_context(
                mock.patch.object(index_mod, "PACK_FLAT_STEP_MAX", flat_max)
            )
            patches.enter_context(
                mock.patch.object(enumeration_mod, "_NP_PROBE_MIN", np_min)
            )
        cpe = CpeEnumerator(build(n, edges), s, t, k)
        check_program(cpe)
        current = path_set(cpe.graph, s, t, k)
        steps = list(stream)
        steps.insert(restore_at, None)
        for step in steps:
            if step is None:
                cpe = restore(snapshot(cpe))
            else:
                # The delta join reads the masks the update wrote.
                u, v = step
                insert = not cpe.graph.has_edge(u, v)
                result = cpe.apply(EdgeUpdate(u, v, insert))
                fresh = path_set(cpe.graph, s, t, k)
                assert sorted(result.paths) == sorted(
                    fresh - current if insert else current - fresh
                )
                current = fresh
            check_program(cpe)
