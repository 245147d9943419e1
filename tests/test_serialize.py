"""Tests for enumerator snapshot / restore."""

import json
import random

import pytest

from repro.baselines.bruteforce import path_set
from repro.core.enumerator import CpeEnumerator
from repro.core.serialize import (
    load_enumerator,
    restore,
    save_enumerator,
    snapshot,
)
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate
from tests.conftest import make_random_graph, random_query
from tests.test_maintenance_insert import assert_index_matches_fresh


def make_cpe():
    g = DynamicDiGraph([(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
    cpe = CpeEnumerator(g, 0, 3, 3)
    cpe.startup()
    return cpe


class TestSnapshotRestore:
    def test_round_trip_preserves_results(self):
        cpe = make_cpe()
        clone = restore(snapshot(cpe))
        assert set(clone.startup()) == set(cpe.startup())
        assert clone.plan.pairs == cpe.plan.pairs
        assert clone.index.direct_edge == cpe.index.direct_edge

    def test_round_trip_preserves_index_exactly(self):
        cpe = make_cpe()
        clone = restore(snapshot(cpe))
        assert clone.index.left.as_dict() == cpe.index.left.as_dict()
        assert clone.index.right.as_dict() == cpe.index.right.as_dict()

    def test_restored_enumerator_handles_updates(self):
        cpe = make_cpe()
        clone = restore(snapshot(cpe))
        result = clone.delete_edge(1, 2)
        assert set(result.paths) == {(0, 1, 2, 3)}
        assert_index_matches_fresh(clone)

    def test_snapshot_is_json_serializable(self):
        state = snapshot(make_cpe())
        json.dumps(state)  # must not raise

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a CPE snapshot"):
            restore({"format": "something-else"})

    def test_rejects_wrong_version(self):
        state = snapshot(make_cpe())
        state["version"] = 99
        with pytest.raises(ValueError, match="unsupported"):
            restore(state)

    def test_file_round_trip(self, tmp_path):
        cpe = make_cpe()
        target = tmp_path / "cpe.json"
        save_enumerator(cpe, target)
        clone = load_enumerator(target)
        assert set(clone.startup()) == set(cpe.startup())

    def test_isolated_vertices_survive(self, tmp_path):
        g = DynamicDiGraph([(0, 1)], vertices=[7])
        cpe = CpeEnumerator(g, 0, 1, 2)
        clone = restore(snapshot(cpe))
        assert clone.graph.has_vertex(7)

    def test_restored_enumerator_matches_original_update_results(self):
        """Original and restored clone agree update-by-update.

        The service layer restores warm indexes from snapshots; a
        restored enumerator must not merely hold the same paths but
        produce *identical UpdateResults* (the same delta paths for the
        same updates) under any subsequent stream.
        """
        rng = random.Random(91)
        for _ in range(10):
            g = make_random_graph(rng, max_edges=14)
            s, t, k = random_query(rng, g)
            cpe = CpeEnumerator(g, s, t, k)
            clone = restore(snapshot(cpe))
            for _ in range(12):
                u, v = rng.sample(list(g.vertices()), 2)
                insert = not g.has_edge(u, v)
                original = cpe.apply(EdgeUpdate(u, v, insert))
                mirrored = clone.apply(EdgeUpdate(u, v, insert))
                assert mirrored.changed == original.changed
                assert set(mirrored.paths) == set(original.paths), (
                    f"delta divergence on e({u}, {v}, "
                    f"{'+' if insert else '-'}) for q({s}, {t}, {k})"
                )
            assert set(clone.startup()) == set(cpe.startup())

    def test_randomized_round_trips_after_updates(self):
        rng = random.Random(55)
        for _ in range(15):
            g = make_random_graph(rng)
            s, t, k = random_query(rng, g)
            cpe = CpeEnumerator(g, s, t, k)
            for _ in range(6):
                u, v = rng.sample(list(g.vertices()), 2)
                if g.has_edge(u, v):
                    cpe.delete_edge(u, v)
                else:
                    cpe.insert_edge(u, v)
            clone = restore(snapshot(cpe))
            assert set(clone.startup()) == path_set(g, s, t, k)
            # and the clone keeps working independently
            u, v = rng.sample(list(clone.graph.vertices()), 2)
            if not clone.graph.has_edge(u, v):
                result = clone.insert_edge(u, v)
                fresh = path_set(clone.graph, s, t, k)
                assert set(result.paths) == fresh - path_set(g, s, t, k)
