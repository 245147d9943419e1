"""Unit tests for the partial path index containers."""

import pytest

from repro.core.index import BitSpace, PartialPathIndex, PathBuckets
from repro.core.plan import balanced_plan

#: A shared bit space for the container tests' masks.
BITS = BitSpace()


def put(buckets, vertex, path):
    """``buckets.add`` with the path's mask in :data:`BITS`."""
    return buckets.add(vertex, path, BITS.mask(path))


class TestPathBuckets:
    def test_add_and_contains(self):
        b = PathBuckets()
        assert put(b, 2, (0, 1, 2)) is True
        assert b.contains(2, (0, 1, 2))
        assert len(b) == 1

    def test_add_duplicate(self):
        b = PathBuckets()
        put(b, 2, (0, 1, 2))
        assert put(b, 2, (0, 1, 2)) is False
        assert len(b) == 1

    def test_remove(self):
        b = PathBuckets()
        put(b, 2, (0, 1, 2))
        assert b.remove(2, (0, 1, 2)) is True
        assert not b.contains(2, (0, 1, 2))
        assert len(b) == 0

    def test_remove_missing(self):
        b = PathBuckets()
        assert b.remove(2, (0, 1, 2)) is False
        put(b, 3, (0, 3))
        assert b.remove(3, (0, 1, 3)) is False

    def test_remove_cleans_empty_buckets(self):
        b = PathBuckets()
        put(b, 1, (0, 1))
        b.remove(1, (0, 1))
        assert list(b.lengths()) == []

    def test_bucket_by_length(self):
        b = PathBuckets()
        put(b, 1, (0, 1))
        put(b, 2, (0, 1, 2))
        assert set(b.bucket(1)) == {1}
        assert set(b.bucket(2)) == {2}
        assert b.bucket(9) == {}

    def test_at_vertex(self):
        b = PathBuckets()
        put(b, 5, (0, 5))
        put(b, 5, (0, 1, 5))
        put(b, 6, (0, 6))
        entries = sorted(b.at_vertex(5))
        assert entries == [(1, (0, 5)), (2, (0, 1, 5))]

    def test_entries_and_paths(self):
        b = PathBuckets()
        put(b, 1, (0, 1))
        put(b, 2, (0, 1, 2))
        assert set(b.paths()) == {(0, 1), (0, 1, 2)}
        assert set(b.entries()) == {(1, 1, (0, 1)), (2, 2, (0, 1, 2))}

    def test_count_at_length(self):
        b = PathBuckets()
        put(b, 1, (0, 1))
        put(b, 2, (0, 2))
        assert b.count_at_length(1) == 2
        assert b.count_at_length(3) == 0

    def test_equality_normalizes_empty_buckets(self):
        a = PathBuckets()
        b = PathBuckets()
        put(a, 1, (0, 1))
        a.remove(1, (0, 1))
        assert a == b

    def test_add_level_bulk_writes(self):
        b = PathBuckets()
        paths = [(0, 1, 3), (0, 2, 3), (0, 1, 4)]
        b.add_level(
            2,
            {3: {(0, 1, 3), (0, 2, 3)}, 4: {(0, 1, 4)}},
            {p: BITS.mask(p) for p in paths},
        )
        assert b.contains(3, (0, 1, 3))
        assert b.bucket(2) == {3: {(0, 1, 3), (0, 2, 3)}, 4: {(0, 1, 4)}}
        assert len(b) == 3
        assert b.vertex_slots == 9
        for path in paths:
            assert b.mask_of(path) == BITS.mask(path)
        version = b.version
        b.add_level(3, {}, {})  # an empty level is kept, unchanged
        assert list(b.lengths()) == [2, 3]
        assert b.version == version
        with pytest.raises(ValueError):
            b.add_level(2, {5: {(0, 1, 5)}}, {(0, 1, 5): BITS.mask((0, 1, 5))})
        assert len(b) == 3

    def test_masks_follow_every_write(self):
        b = PathBuckets()
        put(b, 2, (0, 1, 2))
        put(b, 2, (0, 3, 2))
        assert dict(b.masks()) == {
            (0, 1, 2): BITS.mask((0, 1, 2)),
            (0, 3, 2): BITS.mask((0, 3, 2)),
        }
        b.remove(2, (0, 1, 2))
        assert dict(b.masks()) == {(0, 3, 2): BITS.mask((0, 3, 2))}
        with pytest.raises(KeyError):
            b.mask_of((0, 1, 2))


class TestPartialPathIndex:
    def make(self, k=4):
        return PartialPathIndex("s", "t", k, balanced_plan(k))

    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            PartialPathIndex(1, 1, 3, balanced_plan(3))

    def test_rejects_mismatched_plan(self):
        with pytest.raises(ValueError):
            PartialPathIndex(0, 1, 4, balanced_plan(3))

    def test_left_keyed_by_last_vertex(self):
        idx = self.make()
        idx.add_left(("s", "a", "b"))
        assert idx.has_left(("s", "a", "b"))
        assert idx.left.contains("b", ("s", "a", "b"))
        assert idx.remove_left(("s", "a", "b"))
        assert not idx.has_left(("s", "a", "b"))

    def test_right_keyed_by_first_vertex(self):
        idx = self.make()
        idx.add_right(("c", "d", "t"))
        assert idx.has_right(("c", "d", "t"))
        assert idx.right.contains("c", ("c", "d", "t"))
        assert idx.remove_right(("c", "d", "t"))

    def test_memory_stats(self):
        idx = self.make()
        idx.add_left(("s", "a"))
        idx.add_right(("b", "t"))
        idx.add_right(("c", "b", "t"))
        stats = idx.memory_stats()
        assert stats.left_paths == 1
        assert stats.right_paths == 2
        assert stats.path_count == 3
        assert stats.vertex_slots == 2 + 2 + 3
        assert stats.approx_bytes == 8 * 7 + 16 * 3

    def test_add_left_and_right_write_exact_masks(self):
        idx = self.make()
        idx.add_left(("s", "a", "b"))
        idx.add_right(("b", "c", "t"))
        bits = idx.bits
        assert idx.left.mask_of(("s", "a", "b")) == (
            bits["s"] | bits["a"] | bits["b"]
        )
        assert idx.right.mask_of(("b", "c", "t")) == (
            bits["b"] | bits["c"] | bits["t"]
        )
        assert len({bits[v] for v in "sabct"}) == 5  # one bit per vertex

    def test_repr(self):
        idx = self.make()
        text = repr(idx)
        assert "PartialPathIndex" in text
        assert "k=4" in text
