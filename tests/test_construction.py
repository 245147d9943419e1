"""Tests for the bidirectional index construction (Algorithm 2)."""

import random

import pytest

from repro.baselines.bruteforce import path_set
from repro.core.construction import build_index
from repro.core.distance import MAX_HORIZON, DistanceMap
from repro.core.enumerator import CpeEnumerator
from repro.core.paths import hops, is_simple
from repro.core.plan import balanced_plan
from repro.graph.digraph import DynamicDiGraph
from tests.conftest import make_random_graph, random_query


class TestBasics:
    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            build_index(DynamicDiGraph([(0, 1)]), 0, 0, 3)

    def test_rejects_k_beyond_the_distance_table_bound(self):
        g = DynamicDiGraph([(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="253"):
            build_index(g, 0, 2, MAX_HORIZON + 1)
        with pytest.raises(ValueError, match="253"):
            CpeEnumerator(g, 0, 2, MAX_HORIZON + 1)
        assert CpeEnumerator(g, 0, 2, MAX_HORIZON).startup() == [(0, 1, 2)]

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            build_index(DynamicDiGraph([(0, 1)]), 0, 1, -1)

    def test_k0_and_k1_have_empty_plan(self):
        g = DynamicDiGraph([(0, 1)])
        for k in (0, 1):
            result = build_index(g, 0, 1, k)
            assert result.index.plan.pairs == ()
        assert build_index(g, 0, 1, 1).index.direct_edge is True
        assert build_index(g, 0, 1, 0).index.direct_edge is False

    def test_plan_covers_all_lengths(self):
        g = make_random_graph(random.Random(1))
        result = build_index(g, 0, 1, 6)
        assert sorted(i + j for i, j in result.index.plan) == list(range(2, 7))
        assert result.index.plan.l + result.index.plan.r == 6

    def test_stats_populated(self):
        g = DynamicDiGraph([(0, 1), (1, 2)])
        result = build_index(g, 0, 2, 4)
        assert result.stats.left_levels + result.stats.right_levels == 4
        assert result.stats.induced_size == 3
        assert result.stats.prep_seconds >= 0


class TestStoredInvariant:
    """Every stored partial path must satisfy the index invariant, and
    every admissible partial path must be stored."""

    def _check(self, graph, s, t, k):
        result = build_index(graph, s, t, k)
        index, dist_s, dist_t = result.index, result.dist_s, result.dist_t
        l, r = index.plan.l, index.plan.r

        for length, vertex, path in index.left.entries():
            assert path[0] == s and path[-1] == vertex
            assert hops(path) == length <= l
            assert is_simple(path) and t not in path
            assert length + dist_t.get(vertex) <= k

        for length, vertex, path in index.right.entries():
            assert path[0] == vertex and path[-1] == t
            assert hops(path) == length <= r
            assert is_simple(path) and s not in path
            assert length + dist_s.get(vertex) <= k

        # completeness: brute-force all admissible left partials
        expected_left = set()
        stack = [(s,)]
        while stack:
            p = stack.pop()
            if 1 <= hops(p) <= l and hops(p) + dist_t.get(p[-1]) <= k:
                expected_left.add(p)
            if hops(p) < l:
                for y in graph.out_neighbors(p[-1]):
                    if y != t and y not in p:
                        stack.append(p + (y,))
        stored_left = set(index.left.paths())
        assert stored_left == expected_left

    def test_on_fixed_graph(self, paper_figure2):
        self._check(paper_figure2, 0, 9, 4)

    def test_on_random_graphs(self):
        rng = random.Random(9)
        for _ in range(40):
            g = make_random_graph(rng)
            s, t, k = random_query(rng, g)
            self._check(g, s, t, k)


class TestForcedPlan:
    def test_forced_plan_is_respected(self):
        g = make_random_graph(random.Random(3))
        plan = balanced_plan(5)
        result = build_index(g, 0, 1, 5, forced_plan=plan)
        assert result.index.plan.pairs == plan.pairs

    def test_forced_plan_k_mismatch(self):
        g = DynamicDiGraph([(0, 1)])
        with pytest.raises(ValueError):
            build_index(g, 0, 1, 4, forced_plan=balanced_plan(3))

    def test_forced_and_dynamic_enumerate_identically(self):
        from repro.core.enumeration import enumerate_full

        rng = random.Random(4)
        for _ in range(20):
            g = make_random_graph(rng)
            s, t, k = random_query(rng, g, k_hi=5)
            if k < 2:
                continue
            dynamic = build_index(g, s, t, k)
            forced = build_index(g, s, t, k, forced_plan=balanced_plan(k))
            assert set(enumerate_full(dynamic.index)) == set(
                enumerate_full(forced.index)
            )


class TestDistancePruning:
    def test_unjoinable_partial_not_stored(self):
        # the paper's Fig. 2 remark: {s, v2, v1} is skipped because v1 is
        # 3 hops from t while only 2 hops of budget remain
        g = DynamicDiGraph(
            [(0, 2), (2, 1), (1, 3), (3, 4), (4, 5), (0, 9), (9, 5)]
        )
        result = build_index(g, 0, 5, 4)
        assert not result.index.has_left((0, 2, 1))

    def test_direct_edge_not_in_partials(self):
        g = DynamicDiGraph([(0, 1), (0, 2), (2, 1)])
        result = build_index(g, 0, 1, 4)
        assert result.index.direct_edge is True
        for path in result.index.left.paths():
            assert path != (0, 1)


class TestDynamicCut:
    def test_skewed_graph_prefers_cheap_side(self):
        # s fans out to many vertices; t has a single chain into it.
        edges = [(0, i) for i in range(1, 30)]
        edges += [(i, 30) for i in range(1, 30)]
        edges += [(30, 31), (31, 32), (32, 33)]
        g = DynamicDiGraph(edges)
        result = build_index(g, 0, 33, 6)
        # the right side (into t) is far cheaper, so it should be deeper
        assert result.index.plan.r > result.index.plan.l


def test_full_result_matches_bruteforce_through_index():
    from repro.core.enumeration import enumerate_full

    rng = random.Random(5)
    for _ in range(60):
        g = make_random_graph(rng)
        s, t, k = random_query(rng, g)
        result = build_index(g, s, t, k)
        assert set(enumerate_full(result.index)) == path_set(g, s, t, k)


def test_distance_maps_match_fresh_bfs():
    rng = random.Random(6)
    g = make_random_graph(rng)
    result = build_index(g, 0, 1, 5)
    assert result.dist_s.is_consistent()
    assert result.dist_t.is_consistent()
    fresh = DistanceMap(g, 0, horizon=5)
    assert {v: result.dist_s.get(v) for v in g.vertices()} == {
        v: fresh.get(v) for v in g.vertices()
    }
