"""Tests for the warm-index LRU cache and its admission rule."""

import random

import pytest

from repro import obs
from repro.baselines.bruteforce import path_set
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate
from repro.obs import events
from repro.core.construction import build_index
from repro.core.distance import DistanceMap, JointMap
from repro.core.enumerator import CpeEnumerator
from repro.core import index as index_module
from repro.core.index import PathBuckets
from repro.service import cache as cache_module
from repro.service.cache import (
    ENTRY_BASE_BYTES,
    FREQUENCY_SAMPLE,
    IndexCache,
    estimated_entry_bytes,
)
from repro.service.engine import PathQueryEngine
from repro.service.protocol import BadRequestError
from tests.conftest import make_random_graph, random_query


def chain_graph(n=8):
    return DynamicDiGraph([(i, i + 1) for i in range(n)] +
                          [(0, 2), (1, 3), (2, 4)])


class TestLookups:
    def test_miss_then_hit(self):
        cache = IndexCache(chain_graph())
        first = cache.get_or_build(0, 4, 4)
        second = cache.get_or_build(0, 4, 4)
        assert first.enumerator is second.enumerator
        assert first.outcome == "miss"
        assert second.outcome == "hit"
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == 1
        assert stats.entries == 1
        assert stats.hit_rate == 0.5

    def test_distinct_k_is_a_distinct_entry(self):
        cache = IndexCache(chain_graph())
        a = cache.get_or_build(0, 4, 3)
        b = cache.get_or_build(0, 4, 4)
        assert a.enumerator is not b.enumerator
        assert len(cache) == 2

    def test_cached_results_are_correct(self):
        g = chain_graph()
        cache = IndexCache(g)
        enum = cache.get_or_build(0, 4, 4).enumerator
        assert set(enum.startup()) == path_set(g, 0, 4, 4)


class TestOutcomeReporting:
    """``get_or_build`` must report its own call's outcome explicitly.

    Regression: callers used to infer the outcome from a post-call
    ``key in cache`` check, which misreports whenever the call's own
    path and the cache's final state disagree (e.g. an oversized entry
    is bypassed while a nested build caches a fitting entry under the
    same key).
    """

    def test_outcomes_cover_miss_hit_bypass(self):
        g = chain_graph()
        cache = IndexCache(g)
        assert cache.get_or_build(0, 4, 4).outcome == "miss"
        assert cache.get_or_build(0, 4, 4).outcome == "hit"
        tiny = IndexCache(g, budget_bytes=1)
        assert tiny.get_or_build(0, 4, 4).outcome == "bypass"

    def test_bypass_outcome_survives_nested_same_key_insert(self):
        # The miss path's build caches a fitting entry for the same key
        # via a nested lookup, then hands back an oversized enumerator.
        # The outer call bypasses, yet ``key in cache`` is True
        # afterwards — the old inference would have reported "miss".
        g = chain_graph()
        fitting = CpeEnumerator.from_build(g, build_index(g, 0, 4, 4))
        budget = estimated_entry_bytes(fitting) + 1
        cache = IndexCache(g, budget_bytes=budget)

        from repro.core.index import IndexMemoryStats

        class Oversized(CpeEnumerator):
            def memory_stats(self):
                return IndexMemoryStats(
                    left_paths=budget, right_paths=budget, vertex_slots=budget
                )

        fresh_build = cache._build

        def build(s, t, k):
            cache._build = fresh_build
            cache.get_or_build(s, t, k)  # nested: caches a fitting entry
            return Oversized.from_build(g, build_index(g, s, t, k))

        cache._build = build
        lookup = cache.get_or_build(0, 4, 4)
        assert (0, 4, 4) in cache
        assert lookup.outcome == "bypass"


class TestEvictionAndBudget:
    def test_lru_eviction_under_budget(self):
        g = chain_graph()
        probe = IndexCache(g)
        sizes = [
            estimated_entry_bytes(probe.get_or_build(s, t, 4).enumerator)
            for s, t in [(0, 4), (1, 5), (2, 6)]
        ]
        # Holds the first two entries, overflows when the third lands.
        cache = IndexCache(g, budget_bytes=sum(sizes) - 1)
        cache.get_or_build(0, 4, 4)
        cache.get_or_build(1, 5, 4)
        cache.get_or_build(0, 4, 4)          # refresh: (1,5,4) is now LRU
        for _ in range(2):                   # no more often than (1,5,4)
            assert cache.get_or_build(2, 6, 4).outcome == "bypass"
        cache.get_or_build(2, 6, 4)          # now more often: must evict
        assert (2, 6, 4) in cache
        assert (0, 4, 4) in cache
        assert (1, 5, 4) not in cache
        assert cache.stats().evictions >= 1

    def test_oversized_entry_is_bypassed(self):
        g = chain_graph()
        cache = IndexCache(g, budget_bytes=1)
        lookup = cache.get_or_build(0, 4, 4)
        assert lookup.enumerator is not None
        assert lookup.outcome == "bypass"
        assert len(cache) == 0
        assert cache.stats().bypasses == 1

    def test_current_bytes_tracks_entries(self):
        g = chain_graph()
        cache = IndexCache(g)
        cache.get_or_build(0, 4, 4)
        stats = cache.stats()
        assert 0 < stats.current_bytes <= stats.budget_bytes
        cache.clear()
        assert cache.stats().current_bytes == 0
        assert cache.stats().entries == 0

    def test_invalidate(self):
        cache = IndexCache(chain_graph())
        cache.get_or_build(0, 4, 4)
        assert cache.invalidate((0, 4, 4))
        assert not cache.invalidate((0, 4, 4))
        assert cache.stats().current_bytes == 0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            IndexCache(chain_graph(), budget_bytes=0)


def _sizes(graph, keys):
    probe = IndexCache(graph)
    return {
        key: estimated_entry_bytes(probe.get_or_build(*key).enumerator)
        for key in keys
    }


def _state(cache):
    return list(cache.keys()), cache.stats(), dict(cache._frequency)


A, B, C, D = (3, 7, 4), (2, 6, 4), (1, 5, 4), (0, 4, 4)


class TestAdmission:
    """TinyLFU's admission rule in front of the LRU: a miss that must
    evict keeps its entry only if its key had been looked up more often
    than the entries it would displace together."""

    def test_once_seen_key_does_not_displace_frequent_entries(self):
        g = chain_graph()
        sizes = _sizes(g, [A, B, C])
        cache = IndexCache(g, budget_bytes=sizes[A] + sizes[B])
        for key in (A, A, B, B):
            cache.get_or_build(*key)
        before = _state(cache)
        lookup = cache.get_or_build(*C)
        assert lookup.outcome == "bypass"
        assert set(lookup.enumerator.startup()) == path_set(g, 1, 5, 4)
        keys, stats, frequency = _state(cache)
        assert keys == before[0] == [A, B]
        assert stats.bypasses == before[1].bypasses + 1
        assert stats.misses == before[1].misses + 1
        assert stats.evictions == before[1].evictions == 0
        assert stats.current_bytes == before[1].current_bytes
        assert frequency == {**before[2], C: 1}

    def test_frequent_key_evicts_its_victims_in_lru_order(self, instrumented):
        g = chain_graph()
        sizes = _sizes(g, [A, B, C, D])
        # D displaces both A and B, which were looked up once each.
        assert sizes[D] > sizes[A] and sizes[D] <= sizes[A] + sizes[B]
        cache = IndexCache(g, budget_bytes=sizes[A] + sizes[B] + sizes[C])
        for key in (A, B, C):
            assert cache.get_or_build(*key).outcome == "miss"
        # 0, 1 and 2 earlier lookups against the victims' summed 2.
        for _ in range(3):
            assert cache.get_or_build(*D).outcome == "bypass"
        assert list(cache.keys()) == [A, B, C]
        assert cache.get_or_build(*D).outcome == "miss"
        assert list(cache.keys()) == [C, D]
        stats = cache.stats()
        assert (stats.evictions, stats.bypasses) == (2, 3)
        assert stats.current_bytes == sizes[C] + sizes[D]
        evicted = [
            (event["s"], event["t"], event["k"])
            for event in events.tail(50)
            if event["kind"] == events.CACHE_EVICT
        ]
        assert evicted == [A, B]

    def test_keys_asked_equally_often_do_not_evict_each_other(self):
        # Three equal-sized keys asked once per round, two slots.  The
        # lookup being decided is not counted yet, so the key left out
        # ties with its victim and stays out; counting it first would
        # let it evict the next key due, which would then miss in turn.
        g = chain_graph()
        keys = [(3, 7, 4), (0, 6, 4), (4, 8, 4)]
        sizes = _sizes(g, keys)
        assert len(set(sizes.values())) == 1
        cache = IndexCache(g, budget_bytes=2 * sizes[keys[0]])
        for key in keys:
            cache.get_or_build(*key)
        for _ in range(3):
            outcomes = [cache.get_or_build(*key).outcome
                        for key in (keys[2], keys[0], keys[1])]
            assert outcomes == ["bypass", "hit", "hit"]
        assert cache.stats().evictions == 0

    def test_entry_that_fits_is_always_admitted(self):
        g = chain_graph()
        sizes = _sizes(g, [A, B])
        cache = IndexCache(g, budget_bytes=sizes[A] + sizes[B])
        for _ in range(5):
            cache.get_or_build(*A)
        assert cache.get_or_build(*B).outcome == "miss"
        stats = cache.stats()
        assert list(cache.keys()) == [A, B]
        assert stats.current_bytes == stats.budget_bytes
        assert (stats.evictions, stats.bypasses) == (0, 0)

    def test_aging_halves_counts_and_drops_zeros(self, monkeypatch):
        monkeypatch.setattr(cache_module, "FREQUENCY_SAMPLE", 8)
        cache = IndexCache(chain_graph())
        for key in (A, A, A, A, A, B, C):
            cache.get_or_build(*key)
        assert cache._frequency == {A: 5, B: 1, C: 1}
        cache.get_or_build(*A)               # the 8th lookup ages
        assert cache._frequency == {A: 3}
        for key in (B, B, B, C, D, D, D, D):
            cache.get_or_build(*key)
        assert cache._frequency == {A: 1, B: 1, D: 2}

    def test_rejected_query_leaves_the_table_alone(self):
        cache = IndexCache(chain_graph())
        cache.get_or_build(*A)
        cache.get_or_build(*A)
        before = (dict(cache._frequency), cache._sampled)
        for s, t, k in [(2, 2, 4), (0, 4, -1), (0, 4, 254)]:
            with pytest.raises(ValueError):
                cache.get_or_build(s, t, k)
        assert (cache._frequency, cache._sampled) == before

    def test_frequency_table_stays_bounded(self):
        cache = IndexCache(chain_graph())
        hot = [(0, 4, 4), (1, 5, 4)]
        largest = 0
        for i in range(3 * FREQUENCY_SAMPLE):
            cache._count(hot[i % 2] if i % 3 == 0 else ("cold", i, 4))
            assert sum(cache._frequency.values()) <= 2 * FREQUENCY_SAMPLE
            largest = max(largest, len(cache._frequency))
        assert largest <= 2 * FREQUENCY_SAMPLE
        assert len(cache._frequency) < FREQUENCY_SAMPLE
        assert all(key in cache._frequency for key in hot)

    def test_two_caches_fed_one_stream_agree(self):
        rng = random.Random(3)
        g = make_random_graph(rng, n_lo=9, n_hi=9, max_edges=30)
        mirror = g.copy()
        pool = [random_query(rng, g) for _ in range(8)]
        probe_sizes = _sizes(g, pool)
        budget = sorted(probe_sizes.values())[-3:]
        caches = [
            IndexCache(graph, budget_bytes=sum(budget))
            for graph in (g, mirror)
        ]
        outcomes = [[], []]
        for step in range(120):
            if step % 10 == 9:
                u, v = rng.sample(list(g.vertices()), 2)
                update = EdgeUpdate(u, v, not g.has_edge(u, v))
                for graph, cache in zip((g, mirror), caches):
                    assert graph.apply_update(update)
                    cache.observe_all(update)
                continue
            key = pool[min(int(rng.paretovariate(1.0)) - 1, len(pool) - 1)]
            for cache, seen in zip(caches, outcomes):
                seen.append(cache.get_or_build(*key).outcome)
        assert outcomes[0] == outcomes[1]
        assert {"hit", "miss", "bypass"} <= set(outcomes[0])
        assert _state(caches[0]) == _state(caches[1])
        assert caches[0].stats().evictions > 0


class TestExplicitDropAccounting:
    """``invalidate``/``clear`` must keep the gauge and event log honest.

    Regression: both paths used to mutate ``_current_bytes`` without
    refreshing the ``service.cache.bytes`` gauge or emitting an event,
    so ``repro top`` and the ``metrics`` op reported stale occupancy
    until the next lookup.
    """

    @pytest.fixture(autouse=True)
    def _instrumented(self):
        prev_obs = obs.set_enabled(True)
        prev_events = events.set_enabled(True)
        obs.reset()
        events.reset()
        yield
        obs.set_enabled(prev_obs)
        events.set_enabled(prev_events)
        obs.reset()
        events.reset()

    @staticmethod
    def _bytes_gauge():
        return obs.snapshot()["gauges"].get("service.cache.bytes")

    def test_invalidate_refreshes_gauge_and_emits_event(self):
        cache = IndexCache(chain_graph())
        cache.get_or_build(0, 4, 4)
        cache.get_or_build(1, 5, 4)
        assert cache.invalidate((0, 4, 4))
        assert self._bytes_gauge() == cache.stats().current_bytes
        assert cache.stats().current_bytes > 0
        kinds = [event["kind"] for event in events.tail(50)]
        assert events.CACHE_INVALIDATE in kinds

    def test_invalidate_miss_emits_nothing(self):
        cache = IndexCache(chain_graph())
        cache.get_or_build(0, 4, 4)
        events.reset()
        assert not cache.invalidate((9, 9, 9))
        assert events.tail(50) == []

    def test_clear_zeroes_gauge_and_emits_event(self):
        cache = IndexCache(chain_graph())
        cache.get_or_build(0, 4, 4)
        cache.get_or_build(1, 5, 4)
        freed = cache.stats().current_bytes
        cache.clear()
        assert self._bytes_gauge() == 0
        clears = [
            event for event in events.tail(50)
            if event["kind"] == events.CACHE_CLEAR
        ]
        assert len(clears) == 1
        assert clears[0]["entries"] == 2
        assert clears[0]["freed_bytes"] == freed


class TestObserveAll:
    def test_cached_entries_follow_updates(self):
        g = chain_graph()
        cache = IndexCache(g)
        enum = cache.get_or_build(0, 4, 4).enumerator
        update = EdgeUpdate(0, 4, True)
        assert g.apply_update(update)
        cache.observe_all(update)
        assert set(enum.startup()) == path_set(g, 0, 4, 4)

    def test_randomized_consistency_under_streams(self):
        rng = random.Random(41)
        for _ in range(10):
            g = make_random_graph(rng, max_edges=14)
            cache = IndexCache(g)
            queries = []
            for _ in range(3):
                s, t, k = random_query(rng, g)
                cache.get_or_build(s, t, k)
                queries.append((s, t, k))
            for _ in range(8):
                u, v = rng.sample(list(g.vertices()), 2)
                update = EdgeUpdate(u, v, not g.has_edge(u, v))
                assert g.apply_update(update)
                cache.observe_all(update)
            for s, t, k in queries:
                entry = cache.peek((s, t, k))
                if entry is not None:
                    assert set(entry.startup()) == path_set(g, s, t, k), (
                        f"stale cache entry for {(s, t, k)}"
                    )

    def test_stats_dict_is_json_shaped(self):
        cache = IndexCache(chain_graph())
        cache.get_or_build(0, 4, 4)
        digest = cache.stats().as_dict()
        assert digest["entries"] == 1
        assert set(digest) >= {
            "hits", "misses", "evictions", "bypasses",
            "entries", "current_bytes", "budget_bytes", "hit_rate",
        }


@pytest.fixture
def instrumented():
    """Metrics and the event log on, both empty; restored afterwards."""
    prev_obs = obs.set_enabled(True)
    prev_events = events.set_enabled(True)
    obs.reset()
    events.reset()
    yield
    obs.set_enabled(prev_obs)
    events.set_enabled(prev_events)
    obs.reset()
    events.reset()


def _cache_metrics():
    return {
        name: value
        for name, value in obs.snapshot()["counters"].items()
        if name.startswith("service.cache.")
    }


class TestRejectedQuery:
    """An invalid query must not count as a lookup.

    Regression: ``s == t`` passes protocol decoding, and
    ``get_or_build`` used to bump ``misses``, emit ``cache.miss`` and
    bump ``service.cache.misses`` before the enumerator rejected it.
    """

    def test_cache_counters_metrics_and_events_unchanged(self, instrumented):
        cache = IndexCache(chain_graph())
        cache.get_or_build(0, 4, 4)
        cache.get_or_build(0, 4, 4)
        before = (
            cache.stats().as_dict(), _cache_metrics(), events.tail(1000)
        )
        for s, t, k in [(2, 2, 4), (3, 3, 4), (0, 4, -1)]:
            with pytest.raises(ValueError):
                cache.get_or_build(s, t, k)
        after = (cache.stats().as_dict(), _cache_metrics(), events.tail(1000))
        assert after == before

    def test_rejected_served_query_is_not_a_miss(self, instrumented):
        engine = PathQueryEngine(chain_graph(), default_k=4)
        engine.op_query(s=0, t=4, k=4)
        before_cache = engine.op_stats()["cache"]
        before_events = events.tail(1000)
        for _ in range(2):
            with pytest.raises(BadRequestError):
                engine.op_query(s=3, t=3, k=4)
        assert engine.op_stats()["cache"] == before_cache
        assert events.tail(1000) == before_events


def _recounted_bytes(entry):
    index = entry.index
    paths = [*PathBuckets.paths(index.left), *PathBuckets.paths(index.right)]
    return (
        ENTRY_BASE_BYTES + 8 * sum(len(p) for p in paths) + 16 * len(paths)
    )


def _flips(rng, graph, count):
    """``count`` random edge flips (insert if absent, else delete), each
    drawn against the live graph: apply one before drawing the next."""
    vertices = list(graph.vertices())
    for _ in range(count):
        u, v = rng.sample(vertices, 2)
        yield EdgeUpdate(u, v, not graph.has_edge(u, v))


class _UnwalkableBuckets(PathBuckets):
    """Index buckets whose whole-index walks fail the test."""

    __slots__ = ()

    def paths(self):
        raise AssertionError("walked every stored path of an index")

    def entries(self):
        raise AssertionError("walked every stored path of an index")


class TestSizing:
    def test_observe_all_and_miss_never_walk_stored_paths(self, monkeypatch):
        # Regression: every repaired entry used to be re-sized through a
        # full pass over its stored partial paths.  Construction picks
        # its bucket class up at build time, so every index built below
        # stores its paths in _UnwalkableBuckets; maintenance deltas stay
        # plain PathBuckets.
        monkeypatch.setattr(index_module, "PathBuckets", _UnwalkableBuckets)
        rng = random.Random(5)
        g = make_random_graph(rng, n_lo=9, n_hi=9, max_edges=30)
        cache = IndexCache(g)
        cache.get_or_build(0, 8, 5)
        cache.get_or_build(1, 7, 5)
        cache.get_or_build(0, 7, 5)
        for update in _flips(rng, g, 12):
            assert g.apply_update(update)
            cache.observe_all(update)
        monkeypatch.undo()
        keys = list(cache.keys())
        assert len(keys) == 3
        assert cache.stats().current_bytes == sum(
            _recounted_bytes(cache.peek(key)) for key in keys
        )


def _shared_endpoint_case(seed):
    """A cache holding ``(s, t1, k)`` and ``(s2, t, k)``, plus the key
    ``(s, t, k)`` that shares its source with one entry and its target
    with the other."""
    rng = random.Random(seed)
    g = make_random_graph(rng, n_lo=9, n_hi=11, max_edges=36)
    s, t, s2, t1 = rng.sample(list(g.vertices()), 4)
    k = rng.randint(3, 5)
    cache = IndexCache(g)
    source_entry = cache.get_or_build(s, t1, k).enumerator
    target_entry = cache.get_or_build(s2, t, k).enumerator
    return rng, g, cache, (s, t, k), source_entry, target_entry


@pytest.fixture
def bfs_sources(monkeypatch):
    """Sources of every full ``DistanceMap`` BFS run while the test
    runs; a :class:`JointMap`'s build, pruned by its ``Dist_s``, is not
    one."""
    sources = []
    real_init = DistanceMap.__init__

    def counting_init(self, view, source, horizon):
        if not isinstance(self, JointMap):
            sources.append(source)
        real_init(self, view, source, horizon)

    monkeypatch.setattr(DistanceMap, "__init__", counting_init)
    return sources


class TestMissReusesLiveMaps:
    SEEDS = range(12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shared_endpoints_run_no_bfs(self, seed, bfs_sources):
        # The shared source's Dist_s is cloned; Dist_t is always built,
        # pruned by that Dist_s, whoever shares the target.
        _, g, cache, (s, t, k), _, _ = _shared_endpoint_case(seed)
        del bfs_sources[:]
        lookup = cache.get_or_build(s, t, k)
        assert lookup.outcome == "miss"
        assert bfs_sources == []
        dist_t = lookup.enumerator.dist_t
        assert dist_t.source == t and dist_t.bound is lookup.enumerator.dist_s
        fresh = CpeEnumerator(g, s, t, k)
        assert bfs_sources == [s]
        assert lookup.enumerator.startup() == fresh.startup()
        assert lookup.enumerator.plan == fresh.plan
        assert dist_t.table() == fresh.dist_t.table()

    def test_unshared_side_runs_its_own_bfs(self, bfs_sources):
        _, g, cache, (s, t, k), source_entry, target_entry = (
            _shared_endpoint_case(0)
        )
        used = {s, t, source_entry.t, target_entry.s}
        other = next(v for v in g.vertices() if v not in used)
        del bfs_sources[:]
        cache.get_or_build(s, other, k)
        assert bfs_sources == []
        cache.get_or_build(other, t, k)
        assert bfs_sources == [other]
        cache.get_or_build(s, t, k + 1)
        assert bfs_sources == [other, s]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_entry_tracks_updates_exactly(self, seed):
        rng, g, cache, key, source_entry, target_entry = (
            _shared_endpoint_case(seed)
        )
        s, t, k = key
        seeded = cache.get_or_build(s, t, k).enumerator
        fresh = CpeEnumerator(g, s, t, k)
        current = path_set(g, s, t, k)
        for update in _flips(rng, g, 15):
            assert g.apply_update(update)
            got = cache.observe_all(update)[key].paths
            assert got == fresh.observe(update).paths
            after = path_set(g, s, t, k)
            assert set(got) == (
                after - current if update.insert else current - after
            )
            current = after
        # A maintained index's emission order follows its own update
        # history, so the byte-level reference is the enumerator that
        # observed the same stream.
        assert seeded.startup() == fresh.startup()
        assert set(seeded.startup()) == current
        maps = [
            entry.dist_s for entry in (source_entry, target_entry, seeded)
        ] + [entry.dist_t for entry in (source_entry, target_entry, seeded)]
        assert all(m.is_consistent() for m in maps)
        assert len({id(m.table()) for m in maps}) == len(maps)
        assert seeded.dist_s.table() == source_entry.dist_s.table()
        assert seeded.dist_t.bound is seeded.dist_s
