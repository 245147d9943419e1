"""Tests for the interned array substrate.

Covers the dense-int vertex id space (:mod:`repro.graph.interning`),
the graph's dual-plane adjacency, the masks written with the index's
paths and the join program built from them, and the equivalence of the
join's entry points — list, generator and count must agree
path-for-path, in order, on small steps and on big buckets alike.
"""

import ast
import random
from pathlib import Path

import pytest

import repro
import repro.core.index as index_mod
from repro.baselines.bruteforce import path_set
from repro.core.enumeration import (
    count_full,
    enumerate_full,
    enumerate_full_list,
)
from repro.core.enumerator import CpeEnumerator
from repro.graph.digraph import DynamicDiGraph
from repro.graph.interning import VertexInterner
from tests.conftest import make_random_graph, random_query


# ----------------------------------------------------------------------
# VertexInterner
# ----------------------------------------------------------------------
class TestVertexInterner:
    def test_ids_are_dense_and_insertion_ordered(self):
        interner = VertexInterner()
        assert [interner.intern(v) for v in "cab"] == [0, 1, 2]
        assert interner.vertices() == ["c", "a", "b"]

    def test_intern_is_idempotent(self):
        interner = VertexInterner()
        assert interner.intern("x") == interner.intern("x") == 0
        assert len(interner) == 1

    def test_id_of_and_get(self):
        interner = VertexInterner()
        interner.intern(41)
        assert interner.id_of(41) == 0
        assert interner.get(41) == 0
        assert interner.get("missing") == -1
        assert interner.get("missing", default=-7) == -7
        with pytest.raises(KeyError):
            interner.id_of("missing")

    def test_vertex_of_inverts_intern(self):
        interner = VertexInterner()
        for v in ("s", "t", 3, (1, 2)):
            assert interner.vertex_of(interner.intern(v)) == v

    def test_clone_is_independent(self):
        interner = VertexInterner()
        interner.intern("a")
        twin = interner.clone()
        twin.intern("b")
        assert "b" in twin and "b" not in interner
        assert twin.id_of("a") == interner.id_of("a") == 0

    def test_contains_and_iter(self):
        interner = VertexInterner()
        interner.intern(1)
        interner.intern(2)
        assert 1 in interner and 3 not in interner
        assert list(interner) == [1, 2]


# ----------------------------------------------------------------------
# Dual-plane adjacency
# ----------------------------------------------------------------------
def assert_planes_in_lockstep(graph):
    """The int-id arrays must mirror the dict adjacency exactly."""
    interner = graph.interner
    out_ids, _ = graph.int_adjacency()
    in_ids, _ = graph.int_adjacency(reverse=True)
    for v in graph.vertices():
        iid = interner.id_of(v)
        assert [interner.vertex_of(i) for i in out_ids[iid]] == list(
            graph.out_neighbors(v)
        )
        assert [interner.vertex_of(i) for i in in_ids[iid]] == list(
            graph.in_neighbors(v)
        )


class TestDualPlaneAdjacency:
    def test_lockstep_after_random_churn(self):
        rng = random.Random(17)
        g = make_random_graph(rng)
        vs = list(g.vertices())
        for _ in range(60):
            u, v = rng.sample(vs, 2)
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
        assert_planes_in_lockstep(g)

    def test_vertex_removal_and_readd_reuses_id(self):
        g = DynamicDiGraph([(0, 1), (1, 2), (2, 0)])
        vid = g.interner.id_of(1)
        g.remove_vertex(1)
        assert_planes_in_lockstep(g)
        g.add_edge(1, 2)
        assert g.interner.id_of(1) == vid
        assert_planes_in_lockstep(g)

    def test_copy_detaches_the_array_plane(self):
        g = DynamicDiGraph([(0, 1), (1, 2)])
        twin = g.copy()
        twin.add_edge(2, 0)
        twin.remove_edge(0, 1)
        assert g.has_edge(0, 1) and not g.has_edge(2, 0)
        assert_planes_in_lockstep(g)
        assert_planes_in_lockstep(twin)

    def test_reverse_view_int_adjacency(self):
        g = DynamicDiGraph([(0, 1), (0, 2)])
        fwd_in, _ = g.int_adjacency(reverse=True)
        rev_out, _ = g.reverse_view().int_adjacency()
        assert [list(a) for a in fwd_in] == [list(a) for a in rev_out]


# ----------------------------------------------------------------------
# Written masks and the join program
# ----------------------------------------------------------------------
def make_indexed_enumerator():
    g = DynamicDiGraph(
        [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 4), (4, 3), (4, 2)]
    )
    cpe = CpeEnumerator(g, 0, 3, 4)
    cpe.startup()
    return cpe


def walked_probes(index, i, j):
    """Plan pair ``(i, j)``'s probes in the nested dict/set walk order:
    ``(lmask, lp, rmask, rtail, vcbit)`` per combination."""
    left, right = index.left.bucket(i), index.right.bucket(j)
    if len(left) <= len(right):
        cut = [v for v in left if v in right]
    else:
        cut = [v for v in right if v in left]
    return cut, [
        (
            index.left.mask_of(lp), lp,
            index.right.mask_of(rp), rp[1:],
            index.bits[v],
        )
        for v in cut
        for lp in left[v]
        for rp in right[v]
    ]


def step_probes(step):
    """A program step's probes, from whichever layout it holds."""
    if step.flat is not None:
        return list(step.flat)
    return [
        (lmask, lp, rmask, rtail, vcbit)
        for vcbit, lmasks, lpaths, rpairs in step.buckets
        for lmask, lp in zip(lmasks, lpaths)
        for rmask, rtail in rpairs
    ]


class TestPackedLevels:
    @pytest.mark.parametrize(
        "flat_max", [index_mod.PACK_FLAT_STEP_MAX, 0], ids=["flat", "buckets"]
    )
    def test_program_mirrors_the_dict_walk(self, monkeypatch, flat_max):
        monkeypatch.setattr(index_mod, "PACK_FLAT_STEP_MAX", flat_max)
        cpe = make_indexed_enumerator()
        index = cpe.index
        steps = {(step.i, step.j): step for step in index.packed_program()}
        assert steps
        for i, j in index.plan:
            if not index.left.bucket(i) or not index.right.bucket(j):
                assert (i, j) not in steps
                continue
            step = steps[(i, j)]
            cut, probes = walked_probes(index, i, j)
            assert step.cut_vertices == len(cut)
            assert step.probe_total == len(probes)
            assert (step.flat is not None) == (len(probes) < flat_max)
            assert step_probes(step) == probes

    def test_masks_encode_exact_vertex_sets(self):
        cpe = make_indexed_enumerator()
        cpe.insert_edge(1, 4)  # maintenance writes masks too
        cpe.delete_edge(0, 2)
        index = cpe.index
        bits = index.bits
        assert sorted(bits.values()) == [1 << n for n in range(len(bits))]
        for side in (index.left, index.right):
            assert len(side.masks()) == len(side)
            for path in side.paths():
                expected = 0
                for v in path:
                    expected |= bits[v]
                assert side.mask_of(path) == expected

    def test_version_bump_invalidates_the_cache(self):
        cpe = make_indexed_enumerator()
        index = cpe.index
        before = index.packed_program()
        cpe.insert_edge(1, 4)
        after = index.packed_program()
        assert after is not before
        assert index.packed_program() is after  # stable until next write

    def test_program_survives_no_op_reads(self):
        cpe = make_indexed_enumerator()
        index = cpe.index
        program = index.packed_program()
        list(enumerate_full(index))
        index.left.bucket(1)
        assert index.packed_program() is program


#: Probes in one cut-vertex bucket that count as a big bucket.
BIG_BUCKET = 4096


def make_hub_graph(rng, width):
    """``s=0 -> x -> hub -> y -> t`` over ``width`` middle vertices that
    serve on both sides (``x == y`` combinations are not simple), plus
    random extra edges among them.

    The cut vertex ``hub`` keys ``width`` paths on each side of the
    ``(2, 2)`` step: ``width ** 2`` probes in one bucket.
    """
    hub, t = width + 1, width + 2
    middle = range(1, width + 1)
    edges = [(0, x) for x in middle] + [(x, hub) for x in middle]
    edges += [(hub, y) for y in middle] + [(y, t) for y in middle]
    for _ in range(rng.randint(0, width)):
        edges.append(tuple(rng.sample(middle, 2)))
    return DynamicDiGraph(edges), 0, t


# ----------------------------------------------------------------------
# Join-probe equivalence: generator vs list vs count
# ----------------------------------------------------------------------
class TestJoinEquivalence:
    def test_list_variant_matches_generator(self):
        rng = random.Random(101)
        for _ in range(20):
            g = make_random_graph(rng)
            s, t, k = random_query(rng, g)
            cpe = CpeEnumerator(g, s, t, k)
            assert cpe.startup() == list(enumerate_full(cpe.index))

    def test_big_bucket_join_matches_bruteforce(self):
        # Graphs whose hub bucket holds at least BIG_BUCKET probes under
        # the default thresholds, so the join runs a bucket step there.
        rng = random.Random(303)
        for _ in range(10):
            width = rng.randint(64, 80)
            g, s, t = make_hub_graph(rng, width)
            cpe = CpeEnumerator(g, s, t, 4)
            index = cpe.index
            assert any(
                len(lmasks) * len(rpairs) >= BIG_BUCKET
                for step in index.packed_program()
                if step.flat is None
                for _vcbit, lmasks, _lpaths, rpairs in step.buckets
            ), "no bucket step holds a big bucket"
            paths = enumerate_full_list(index)
            assert list(enumerate_full(index)) == paths
            assert count_full(index) == len(paths)
            assert set(paths) == path_set(g, s, t, 4)

    def test_update_then_enumerate_matches_fresh_build(self):
        rng = random.Random(77)
        for _ in range(10):
            g = make_random_graph(rng)
            s, t, k = random_query(rng, g)
            cpe = CpeEnumerator(g, s, t, k)
            cpe.startup()
            for _ in range(8):
                u, v = rng.sample(list(g.vertices()), 2)
                if g.has_edge(u, v):
                    cpe.delete_edge(u, v)
                else:
                    cpe.insert_edge(u, v)
            fresh = CpeEnumerator(g.copy(), s, t, k)
            assert sorted(cpe.startup()) == sorted(fresh.startup())


def test_package_never_imports_numpy():
    """The join runs on ints and lists only: no module of the package
    imports numpy, so there is no second probe to keep in step."""
    modules = sorted(Path(repro.__file__).parent.rglob("*.py"))
    assert any(path.name == "enumeration.py" for path in modules)
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
