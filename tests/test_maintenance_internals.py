"""White-box tests for the maintenance helpers."""

import pytest

from repro.core.construction import build_index
from repro.core.distance import DistanceMap
from repro.core.index import BitSpace
from repro.core.maintenance import IndexMaintainer, UpdateRecord
from repro.graph.digraph import DynamicDiGraph


def make_maintainer(edges, s, t, k):
    graph = DynamicDiGraph(edges)
    built = build_index(graph, s, t, k)
    return IndexMaintainer(graph, built.index, built.dist_s, built.dist_t)


class TestForwardBackwardDfs:
    def setup_method(self):
        self.m = make_maintainer(
            [(0, 1), (1, 2), (2, 9), (1, 3), (3, 9), (1, 9)], 0, 9, 4
        )

    def test_forward_paths_respect_range(self):
        paths = self.m._forward_paths_to_t(1, 1, 2)
        assert set(paths) == {(1, 9), (1, 2, 9), (1, 3, 9)}
        only_short = self.m._forward_paths_to_t(1, 1, 1)
        assert set(only_short) == {(1, 9)}
        only_long = self.m._forward_paths_to_t(1, 2, 2)
        assert set(only_long) == {(1, 2, 9), (1, 3, 9)}

    def test_forward_paths_avoid_s(self):
        m = make_maintainer([(0, 1), (1, 0), (0, 9), (1, 9)], 0, 9, 4)
        # paths from 1 to 9 must not pass through s=0
        assert set(m._forward_paths_to_t(1, 1, 3)) == {(1, 9)}

    def test_backward_paths_are_forward_oriented(self):
        paths = self.m._backward_paths_from_s(2, 1, 3)
        assert set(paths) == {(0, 1, 2)}

    def test_backward_paths_avoid_t(self):
        m = make_maintainer([(0, 9), (9, 1), (0, 1), (1, 2), (2, 9)], 0, 9, 4)
        # s->1 via 9 is forbidden (t interior)
        assert set(m._backward_paths_from_s(1, 1, 3)) == {(0, 1)}


class TestEdgeUsingMarks:
    def test_left_marks_cover_all_positions(self):
        m = make_maintainer(
            [(0, 1), (1, 2), (2, 3), (3, 9), (2, 9)], 0, 9, 5
        )
        from repro.core.index import PathBuckets

        removed = PathBuckets()
        m.graph.remove_edge(1, 2)
        m._mark_edge_using_left(1, 2, removed)
        marked = set(removed.paths())
        assert (0, 1, 2) in marked
        assert (0, 1, 2, 3) in marked
        for path in marked:
            assert any(a == 1 and b == 2 for a, b in zip(path, path[1:]))

    def test_right_marks_seeded_at_target_edge(self):
        m = make_maintainer([(0, 1), (1, 9), (0, 9)], 0, 9, 3)
        from repro.core.index import PathBuckets

        removed = PathBuckets()
        m.graph.remove_edge(1, 9)
        m._mark_edge_using_right(1, 9, removed)
        assert set(removed.paths()) == {(1, 9)}


class TestUpdateRecord:
    def test_delta_partial_paths(self):
        record = UpdateRecord(insert=True)
        mask = BitSpace().mask
        record.left_delta.add(1, (0, 1), mask((0, 1)))
        record.right_delta.add(2, (2, 9), mask((2, 9)))
        record.right_delta.add(3, (3, 9), mask((3, 9)))
        assert record.delta_partial_paths == 3

    def test_apply_removals_rejects_insert_records(self):
        m = make_maintainer([(0, 1), (1, 9)], 0, 9, 3)
        m.graph.add_edge(0, 9)
        record = m.insert_edge(0, 9)
        with pytest.raises(ValueError):
            m.apply_removals(record)


class TestObserveValidation:
    def test_dist_t_must_be_the_joint_map_of_dist_s(self):
        graph = DynamicDiGraph([(0, 1), (1, 9)])
        built = build_index(graph, 0, 9, 3)
        full_t = DistanceMap(graph.reverse_view(), 9, built.dist_s.horizon)
        for dist_s, dist_t in (
            (built.dist_s, full_t),
            (built.dist_s.clone(), built.dist_t),
        ):
            with pytest.raises(ValueError, match="joint map"):
                IndexMaintainer(graph, built.index, dist_s, dist_t)

    def test_observe_insert_requires_edge_present(self):
        m = make_maintainer([(0, 1), (1, 9)], 0, 9, 3)
        with pytest.raises(ValueError, match="not in the graph"):
            m.insert_edge(5, 6)

    def test_observe_delete_requires_edge_absent(self):
        m = make_maintainer([(0, 1), (1, 9)], 0, 9, 3)
        with pytest.raises(ValueError, match="still in the graph"):
            m.delete_edge(0, 1)

    def test_enumerator_observe_round_trip(self):
        from repro.core.enumerator import CpeEnumerator
        from repro.graph.digraph import EdgeUpdate

        g = DynamicDiGraph([(0, 1), (1, 9)])
        cpe = CpeEnumerator(g, 0, 9, 3)
        cpe.startup()
        g.add_edge(0, 9)
        result = cpe.observe(EdgeUpdate(0, 9, True))
        assert result.paths == [(0, 9)]
        g.remove_edge(1, 9)
        result = cpe.observe(EdgeUpdate(1, 9, False))
        assert set(result.paths) == {(0, 1, 9)}
        assert set(cpe.startup()) == {(0, 9)}
