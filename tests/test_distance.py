"""Unit + randomized tests for the dynamic distance maps."""

import random

import pytest

from repro.core.distance import (
    MAX_HORIZON,
    DistanceMap,
    JointMap,
    induced_vertices,
)
from repro.graph.digraph import DynamicDiGraph
from tests.conftest import make_random_graph


def chain(n):
    return DynamicDiGraph([(i, i + 1) for i in range(n - 1)])


class TestBuild:
    def test_bfs_distances(self):
        g = chain(6)
        d = DistanceMap(g, 0, horizon=10)
        assert [d.get(i) for i in range(6)] == [0, 1, 2, 3, 4, 5]

    def test_horizon_cap(self):
        g = chain(6)
        d = DistanceMap(g, 0, horizon=3)
        assert d.get(3) == 3
        assert d.get(4) == d.far == 4
        assert d.get(5) == d.far

    def test_missing_source(self):
        g = chain(3)
        d = DistanceMap(g, 99, horizon=5)
        assert d.get(99) == 0
        assert d.get(0) == d.far

    def test_reverse_view_gives_dist_to_target(self):
        g = chain(4)
        d = DistanceMap(g.reverse_view(), 3, horizon=5)
        assert d.get(0) == 3
        assert d.get(3) == 0

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            DistanceMap(chain(2), 0, horizon=-1)

    def test_contains_and_len(self):
        d = DistanceMap(chain(3), 0, horizon=5)
        assert 2 in d
        assert len(d) == 3

    def test_horizon_beyond_a_byte_rejected(self):
        assert DistanceMap(chain(2), 0, horizon=MAX_HORIZON).far == 254
        with pytest.raises(ValueError, match="253"):
            DistanceMap(chain(2), 0, horizon=MAX_HORIZON + 1)


class TestTable:
    def test_known_follows_id_order(self):
        g = DynamicDiGraph([("a", "b"), ("c", "a")], vertices=["c", "b"])
        d = DistanceMap(g, "c", horizon=5)
        # ids: c=0, b=1, a=2 (registration order), not BFS order
        assert list(d.known()) == [("c", 0), ("b", 2), ("a", 1)]
        assert d.recomputed() == {"c": 0, "a": 1, "b": 2}
        ids = d.interner.ids()
        assert [d.table()[ids[v]] for v in "abc"] == [1, 2, 0]

    def test_source_registered_after_build(self):
        g = chain(3)
        d = DistanceMap(g, "s", horizon=4)
        assert d.get("s") == 0 and "s" in d
        assert list(d.known()) == [("s", 0)] and len(d) == 1
        g.add_edge("s", 0)
        changed = d.relax_insert("s", 0)
        assert changed == {0: (d.far, 1), 1: (d.far, 2), 2: (d.far, 3)}
        assert len(d) == 4
        assert d.is_consistent()

    def test_vertices_registered_after_build_start_far(self):
        g = chain(3)
        d = DistanceMap(g, 0, horizon=5)
        g.add_edge("x", "y")
        assert d.get("x") == d.get("y") == d.far
        assert d.relax_insert("x", "y") == {}
        g.add_edge(2, "x")
        assert d.relax_insert(2, "x") == {"x": (d.far, 3), "y": (d.far, 4)}
        assert d.is_consistent()

    def test_clone_owns_its_table(self):
        g = chain(4)
        d = DistanceMap(g, 0, horizon=5)
        twin = d.clone()
        assert twin.table() == d.table() and twin.table() is not d.table()
        g.remove_edge(1, 2)
        twin.tighten_delete(1, 2)
        assert twin.is_consistent()
        assert d.get(3) == 3 and twin.get(3) == twin.far


class TestRelaxInsert:
    def test_shortcut_relaxes_suffix(self):
        g = chain(6)
        d = DistanceMap(g, 0, horizon=10)
        g.add_edge(0, 4)
        changed = d.relax_insert(0, 4)
        assert changed[4] == (4, 1)
        assert changed[5] == (5, 2)
        assert d.is_consistent()

    def test_irrelevant_insert_changes_nothing(self):
        g = chain(4)
        d = DistanceMap(g, 0, horizon=10)
        g.add_edge(3, 1)  # backward edge: no shorter path to anything
        assert d.relax_insert(3, 1) == {}
        assert d.is_consistent()

    def test_insert_reaching_far_vertex(self):
        g = DynamicDiGraph([(0, 1)], vertices=[2])
        d = DistanceMap(g, 0, horizon=5)
        g.add_edge(1, 2)
        changed = d.relax_insert(1, 2)
        assert changed[2] == (d.far, 2)

    def test_insert_beyond_horizon_ignored(self):
        g = chain(4)  # 0..3
        d = DistanceMap(g, 0, horizon=2)
        g.add_edge(3, 0)  # source side is far; nothing can improve
        g.add_edge(2, 3)
        assert d.relax_insert(2, 3) == {}  # 2 is at the horizon already

    def test_self_loop_noop(self):
        g = chain(3)
        d = DistanceMap(g, 0, horizon=5)
        g.add_edge(1, 1)
        assert d.relax_insert(1, 1) == {}


class TestTightenDelete:
    def test_delete_tree_edge_increases(self):
        g = chain(5)
        d = DistanceMap(g, 0, horizon=10)
        g.remove_edge(1, 2)
        changed = d.tighten_delete(1, 2)
        assert changed[2] == (2, d.far)
        assert changed[4] == (4, d.far)
        assert d.is_consistent()

    def test_delete_with_alternative_parent(self):
        g = chain(4)
        g.add_edge(0, 2)  # alternative route to 2 of the same length? no: shorter
        d = DistanceMap(g, 0, horizon=10)
        g.remove_edge(1, 2)
        d.tighten_delete(1, 2)
        assert d.get(2) == 1  # via the 0->2 edge
        assert d.is_consistent()

    def test_delete_non_tree_edge_noop(self):
        g = chain(4)
        g.add_edge(0, 3)
        d = DistanceMap(g, 0, horizon=10)
        assert d.get(3) == 1
        g.remove_edge(2, 3)  # not on any shortest path
        assert d.tighten_delete(2, 3) == {}
        assert d.is_consistent()

    def test_delete_in_cycle(self):
        # tightened vertices forming a loop: the paper's "worse case"
        g = DynamicDiGraph([(0, 1), (1, 2), (2, 3), (3, 2)])
        d = DistanceMap(g, 0, horizon=10)
        g.remove_edge(1, 2)
        d.tighten_delete(1, 2)
        assert d.get(2) == d.far
        assert d.get(3) == d.far
        assert d.is_consistent()

    def test_partial_increase_within_horizon(self):
        g = DynamicDiGraph([(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)])
        d = DistanceMap(g, 0, horizon=10)
        g.remove_edge(1, 2)
        changed = d.tighten_delete(1, 2)
        assert changed[2] == (2, 3)  # reroute via 3, 4
        assert d.is_consistent()


class TestRandomizedMaintenance:
    def test_long_update_streams_stay_consistent(self):
        rng = random.Random(42)
        for _ in range(60):
            g = make_random_graph(rng, n_lo=4, n_hi=10, max_edges=20)
            source = rng.choice(list(g.vertices()))
            horizon = rng.randint(1, 6)
            d = DistanceMap(g, source, horizon=horizon)
            for _ in range(40):
                u, v = rng.sample(list(g.vertices()), 2)
                if g.has_edge(u, v):
                    g.remove_edge(u, v)
                    d.tighten_delete(u, v)
                else:
                    g.add_edge(u, v)
                    d.relax_insert(u, v)
                assert d.is_consistent()

    def test_changed_reports_are_exact(self):
        rng = random.Random(43)
        for _ in range(40):
            g = make_random_graph(rng, n_lo=4, n_hi=8, max_edges=14)
            source = rng.choice(list(g.vertices()))
            d = DistanceMap(g, source, horizon=5)
            before = {v: d.get(v) for v in g.vertices()}
            u, v = rng.sample(list(g.vertices()), 2)
            if g.has_edge(u, v):
                g.remove_edge(u, v)
                changed = d.tighten_delete(u, v)
            else:
                g.add_edge(u, v)
                changed = d.relax_insert(u, v)
            after = {w: d.get(w) for w in g.vertices()}
            expected = {
                w: (before[w], after[w])
                for w in g.vertices()
                if before[w] != after[w]
            }
            assert changed == expected


class TestInducedVertices:
    def test_theorem4_set(self):
        g = DynamicDiGraph([(0, 1), (1, 2), (2, 3), (0, 9)])
        ds = DistanceMap(g, 0, horizon=3)
        dt = DistanceMap(g.reverse_view(), 3, horizon=3)
        sub = induced_vertices(ds, dt, 3)
        assert sub == {0, 1, 2, 3}  # vertex 9 cannot reach t

    def test_empty_when_disconnected(self):
        g = DynamicDiGraph([(0, 1)], vertices=[5])
        ds = DistanceMap(g, 0, horizon=4)
        dt = DistanceMap(g.reverse_view(), 5, horizon=4)
        assert induced_vertices(ds, dt, 4) == set()

    def test_maps_over_different_graphs_rejected(self):
        ds = DistanceMap(chain(3), 0, horizon=3)
        dt = DistanceMap(chain(3).reverse_view(), 2, horizon=3)
        with pytest.raises(ValueError):
            induced_vertices(ds, dt, 3)


class TestJointMap:
    """``Dist_t`` on ``G_sub = {x : Dist_s[x] + Dist_t[x] <= far}`` only."""

    K = 4  # horizon 3, far 4

    def maps(self):
        # s=0 -> 1 -> 2 -> t=3, and 6 -> 5 -> 4 -> 3 beside it: 4, 5
        # and 6 reach t but are out of s's reach.
        g = DynamicDiGraph([(0, 1), (1, 2), (2, 3), (6, 5), (5, 4), (4, 3)])
        ds = DistanceMap(g, 0, horizon=self.K - 1)
        return g, ds, JointMap(g.reverse_view(), 3, ds)

    def test_build_stops_at_g_sub(self):
        _, _, dt = self.maps()
        assert dict(dt.known()) == {3: 0, 2: 1, 1: 2, 0: 3}
        assert dt.get(4) == dt.far
        assert dt.is_consistent()

    def test_insertion_brings_vertices_in(self):
        g, ds, dt = self.maps()
        g.add_edge(1, 5)
        changed_s = ds.relax_insert(1, 5)
        assert changed_s == {5: (4, 2), 4: (4, 3)}
        # Dist_s[1] + 1 + Dist_t[5] = 4: the table reads far at 5, so
        # only the search from 5 decides the test.
        ids = g.interner.ids()
        assert dt.reaches(ids[5], 2, changed_s)
        assert not dt.reaches(ids[5], 1, changed_s)
        assert dt.relax_insert(5, 1, changed_s) == {4: (4, 1), 5: (4, 2)}
        assert dt.is_consistent() and dt.get(6) == dt.far

    def test_deletion_sets_leavers_far(self):
        g, ds, dt = self.maps()
        g.add_edge(1, 5)
        dt.relax_insert(5, 1, ds.relax_insert(1, 5))
        g.remove_edge(1, 5)
        changed_s = ds.tighten_delete(1, 5)
        # Dist_t of 4 and 5 stays; their Dist_s rose, so they left.
        assert dt.tighten_delete(5, 1, changed_s) == {5: (2, 4), 4: (1, 4)}
        assert dict(dt.known()) == {3: 0, 2: 1, 1: 2, 0: 3}

    def test_bound_must_share_the_graph(self):
        _, ds, _ = self.maps()
        with pytest.raises(ValueError):
            JointMap(chain(4).reverse_view(), 3, ds)
