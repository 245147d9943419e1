"""Demonstrating and bounding the paper-literal UDFS gap (DESIGN.md §3)."""

import random

from repro.core.construction import build_index
from repro.core.maintenance import IndexMaintainer
from repro.core.maintenance_strict import StrictUdfsMaintainer
from repro.graph.digraph import DynamicDiGraph
from tests.conftest import make_random_graph, random_query


def build_pair(graph, s, t, k):
    """Two maintainers over independent copies of the same state."""
    strict_graph = graph.copy()
    default_graph = graph.copy()
    sb = build_index(strict_graph, s, t, k)
    db = build_index(default_graph, s, t, k)
    strict = StrictUdfsMaintainer(strict_graph, sb.index, sb.dist_s, sb.dist_t)
    default = IndexMaintainer(default_graph, db.index, db.dist_s, db.dist_t)
    return strict, default


def insert(maintainer, u, v):
    """Add ``(u, v)`` to the maintainer's graph, then repair for it."""
    maintainer.graph.add_edge(u, v)
    return maintainer.insert_edge(u, v)


def index_content(maintainer):
    return (
        maintainer.index.left.as_dict(),
        maintainer.index.right.as_dict(),
    )


def counterexample():
    """The DESIGN.md §3 scenario: a pre-existing admissible RP path at a
    relaxed vertex whose extension to a second relaxed vertex becomes
    admissible only through the relaxation."""
    edges = [
        (0, 10), (10, 11), (11, 12), (12, 13), (13, 14), (14, 1),
        (1, 2),
        (2, 3), (3, 4), (4, 5), (5, 9),
        (0, 20), (20, 21), (21, 22), (22, 2),
        (0, 30),
    ]
    return DynamicDiGraph(edges), 0, 9, 8


class TestStrictGap:
    def test_strict_misses_the_counterexample_extension(self):
        graph, s, t, k = counterexample()
        strict, default = build_pair(graph, s, t, k)
        insert(strict, 30, 1)
        insert(default, 30, 1)
        # the complete repair equals a fresh build ...
        fresh = build_index(default.graph, s, t, k, forced_plan=default.index.plan)
        assert index_content(default) == (
            fresh.index.left.as_dict(), fresh.index.right.as_dict()
        )
        # ... the strict (paper-literal) repair does not: it misses
        # partial paths, demonstrating the pseudocode gap
        strict_left, strict_right = index_content(strict)
        complete_left, complete_right = index_content(default)
        assert (strict_left, strict_right) != (complete_left, complete_right)
        missing = []
        for side_strict, side_full in (
            (strict_left, complete_left), (strict_right, complete_right)
        ):
            for length, bucket in side_full.items():
                for vertex, paths in bucket.items():
                    missing.extend(
                        paths - side_strict.get(length, {}).get(vertex, set())
                    )
        assert missing, "expected the strict variant to miss partial paths"

    def test_strict_never_adds_wrong_paths(self):
        """The gap is one-sided: strict may MISS paths, never invent them."""
        rng = random.Random(61)
        for _ in range(40):
            graph = make_random_graph(rng, max_edges=12)
            s, t, k = random_query(rng, graph)
            strict, _ = build_pair(graph, s, t, k)
            for _ in range(6):
                u, v = rng.sample(list(graph.vertices()), 2)
                if strict.graph.has_edge(u, v):
                    continue
                insert(strict, u, v)
            fresh = build_index(
                strict.graph, s, t, k, forced_plan=strict.index.plan
            )
            for side in ("left", "right"):
                got = getattr(strict.index, side).as_dict()
                want = getattr(fresh.index, side).as_dict()
                for length, bucket in got.items():
                    for vertex, paths in bucket.items():
                        assert paths <= want.get(length, {}).get(
                            vertex, set()
                        ), f"strict invented paths at {side}_{length}({vertex})"

    def test_divergence_is_common_on_insertion_streams(self):
        """Quantify the gap: under repeated insertions the strict repair
        diverges from the complete index on a large fraction of random
        streams (measured ~50% at k >= 4), not just on constructed
        corner cases.  Missing partial paths are frequently unjoinable
        *at the moment they go missing* — which is why enumeration
        output can look right for a while — but they are exactly the
        entries later updates must join against, so the index drift is
        a real correctness bug of the literal pseudocode."""
        rng = random.Random(62)
        trials = diverged = 0
        for _ in range(120):
            graph = make_random_graph(rng, n_lo=5, n_hi=8, max_edges=10)
            s, t, k = random_query(rng, graph, k_hi=6)
            if k < 4:
                continue
            strict, default = build_pair(graph, s, t, k)
            for _ in range(8):
                u, v = rng.sample(list(graph.vertices()), 2)
                if strict.graph.has_edge(u, v):
                    continue
                insert(strict, u, v)
                insert(default, u, v)
            trials += 1
            if index_content(strict) != index_content(default):
                diverged += 1
        assert trials >= 50
        assert diverged > 0, "the gap should show up on random streams"
