"""Tests for Algorithm 1 (full enumeration) and the delta join."""

import random

from repro.baselines.bruteforce import path_set
from repro.core.construction import build_index
from repro.core.enumeration import count_full, enumerate_delta, enumerate_full
from repro.core.index import PathBuckets
from repro.graph.digraph import DynamicDiGraph
from tests.conftest import make_random_graph, random_query


class TestFullEnumeration:
    def test_diamond(self, diamond):
        result = build_index(diamond, 0, 3, 2)
        assert set(enumerate_full(result.index)) == {
            (0, 3), (0, 1, 3), (0, 2, 3)
        }

    def test_hop_constraint_respected(self, two_hop_chain):
        result = build_index(two_hop_chain, 0, 5, 4)
        assert list(enumerate_full(result.index)) == []
        result = build_index(two_hop_chain, 0, 5, 5)
        assert list(enumerate_full(result.index)) == [(0, 1, 2, 3, 4, 5)]

    def test_no_duplicates_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(40):
            g = make_random_graph(rng)
            s, t, k = random_query(rng, g)
            paths = list(enumerate_full(build_index(g, s, t, k).index))
            assert len(paths) == len(set(paths))

    def test_matches_bruteforce(self, paper_figure2):
        for k in range(1, 7):
            result = build_index(paper_figure2, 0, 9, k)
            assert set(enumerate_full(result.index)) == path_set(
                paper_figure2, 0, 9, k
            )

    def test_count_full(self, diamond):
        result = build_index(diamond, 0, 3, 2)
        assert count_full(result.index) == 3

    def test_simplicity_check_rejects_overlapping_partials(self):
        # 0 -> 1 -> 2 and 2 -> 1 -> 3 share vertex 1: must not join
        g = DynamicDiGraph([(0, 1), (1, 2), (2, 1), (1, 3)])
        result = build_index(g, 0, 3, 4)
        paths = set(enumerate_full(result.index))
        assert (0, 1, 2, 1, 3) not in paths
        assert (0, 1, 3) in paths


class TestDeltaJoin:
    def test_delta_left_joins_full_right(self, diamond):
        result = build_index(diamond, 0, 3, 2)
        delta_left = PathBuckets()
        # Pretend (0, 1) is newly added; a delta carries the index's mask.
        delta_left.add(1, (0, 1), result.index.left.mask_of((0, 1)))
        got = set(
            enumerate_delta(result.index, delta_left, PathBuckets())
        )
        assert got == {(0, 1, 3)}

    def test_delta_right_skips_delta_left_pairs(self, diamond):
        result = build_index(diamond, 0, 3, 2)
        delta_left = PathBuckets()
        delta_left.add(1, (0, 1), result.index.left.mask_of((0, 1)))
        delta_right = PathBuckets()
        delta_right.add(1, (1, 3), result.index.right.mask_of((1, 3)))
        got = list(
            enumerate_delta(result.index, delta_left, delta_right)
        )
        # (0,1)x(1,3) must appear exactly once (via the delta-left term)
        assert got.count((0, 1, 3)) == 1

    def test_direct_edge_flag(self, diamond):
        result = build_index(diamond, 0, 3, 2)
        got = list(
            enumerate_delta(
                result.index, PathBuckets(), PathBuckets(), True
            )
        )
        assert got == [(0, 3)]

    def test_empty_deltas_yield_nothing(self, diamond):
        result = build_index(diamond, 0, 3, 2)
        assert (
            list(enumerate_delta(result.index, PathBuckets(), PathBuckets()))
            == []
        )
