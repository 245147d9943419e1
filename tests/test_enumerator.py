"""Tests for the CpeEnumerator facade."""

import pytest

from repro.core.enumerator import CpeEnumerator
from repro.core.plan import balanced_plan
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate


class TestConstruction:
    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            CpeEnumerator(DynamicDiGraph([(0, 1)]), 0, 0, 3)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            CpeEnumerator(DynamicDiGraph([(0, 1)]), 0, 1, -2)

    def test_missing_endpoints_tolerated(self):
        cpe = CpeEnumerator(DynamicDiGraph([(5, 6)]), 0, 1, 3)
        assert cpe.startup() == []

    def test_forced_plan(self):
        g = DynamicDiGraph([(0, 1), (1, 2), (2, 3)])
        cpe = CpeEnumerator(g, 0, 3, 4, forced_plan=balanced_plan(4))
        assert cpe.plan.pairs == balanced_plan(4).pairs
        assert set(cpe.startup()) == {(0, 1, 2, 3)}

    def test_repr(self):
        cpe = CpeEnumerator(DynamicDiGraph([(0, 1)]), 0, 1, 2)
        assert "CpeEnumerator" in repr(cpe)


class TestStartup:
    def test_startup_and_count_agree(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        assert len(cpe.startup()) == cpe.count_paths() == 3

    def test_iter_paths_streams(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        it = cpe.iter_paths()
        first = next(it)
        assert first in {(0, 3), (0, 1, 3), (0, 2, 3)}

    def test_k1_direct_edge_only(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 1)
        assert cpe.startup() == [(0, 3)]

    def test_k0_no_paths(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 0)
        assert cpe.startup() == []


class TestUpdates:
    def test_apply_dispatches(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        res = cpe.apply(EdgeUpdate(0, 3, False))
        assert res.update.insert is False
        assert (0, 3) in res.paths
        res = cpe.apply(EdgeUpdate(0, 3, True))
        assert res.update.insert is True
        assert (0, 3) in res.paths

    def test_apply_stream(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        results = cpe.apply_stream(
            [EdgeUpdate(0, 3, False), EdgeUpdate(0, 3, True)]
        )
        assert len(results) == 2
        assert results[0].delta_count == results[1].delta_count == 1

    def test_timings_recorded(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        res = cpe.delete_edge(1, 3)
        assert res.maintain_seconds >= 0
        assert res.enumerate_seconds >= 0
        assert res.total_seconds == pytest.approx(
            res.maintain_seconds + res.enumerate_seconds
        )

    def test_noop_update_has_zero_delta(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        res = cpe.insert_edge(0, 1)  # already present
        assert res.changed is False
        assert res.delta_count == 0

    def test_k1_updates_track_direct_edge_only(self):
        g = DynamicDiGraph([(0, 1), (1, 2)])
        cpe = CpeEnumerator(g, 0, 2, 1)
        res = cpe.insert_edge(0, 2)
        assert res.paths == [(0, 2)]
        res = cpe.delete_edge(0, 2)
        assert res.paths == [(0, 2)]
        res = cpe.insert_edge(1, 0)  # irrelevant at k=1
        assert res.paths == []

    def test_updates_through_facade_keep_graph_reference(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        cpe.insert_edge(3, 0)
        assert diamond.has_edge(3, 0)  # facade mutates the caller's graph


class TestIntrospection:
    def test_memory_stats_change_with_updates(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        before = cpe.memory_stats().path_count
        cpe.delete_edge(1, 3)
        after = cpe.memory_stats().path_count
        assert after < before

    def test_construction_stats_exposed(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        stats = cpe.construction_stats
        assert stats.left_paths + stats.right_paths == cpe.memory_stats().path_count
