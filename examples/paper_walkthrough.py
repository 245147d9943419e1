#!/usr/bin/env python3
"""A guided tour of the CPE machinery on the paper's running example.

Reconstructs (a variant of) the paper's Figure 2 graph and shows, step
by step, what each piece computes: the distance maps and induced
subgraph (Theorem 4), the partial path index with the admissibility
pruning (Fig. 2's remark about `{s, v2, v1}`), the join plan, the
start-up join, and one insertion and one deletion with their exact
deltas and index changes.

Companion reading: docs/ALGORITHMS.md.

Run:  python examples/paper_walkthrough.py
"""

from repro import CpeEnumerator, DynamicDiGraph
from repro.core.distance import DistanceMap, induced_vertices


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def show_index(cpe: CpeEnumerator) -> None:
    index = cpe.index
    for side, buckets in (("LP", index.left), ("RP", index.right)):
        for length in sorted(buckets.lengths()):
            bucket = buckets.bucket(length)
            for vertex in sorted(bucket, key=repr):
                paths = sorted(bucket[vertex])
                rendered = ", ".join(
                    "(" + ",".join(map(str, p)) + ")" for p in paths
                )
                print(f"    {side}_{length}({vertex}) = {{{rendered}}}")


def main() -> None:
    # s = 0, t = 9; vertex 7 leads to a dead end (8 cannot reach t),
    # mirroring Fig. 2's pruned partial path {s, v2, v1}.
    graph = DynamicDiGraph(
        [
            (0, 1), (0, 2), (1, 3), (2, 3), (2, 4),
            (3, 5), (4, 5), (3, 6), (5, 9), (6, 9),
            (1, 7), (7, 8),
        ]
    )
    s, t, k = 0, 9, 4

    banner(f"query q(s={s}, t={t}, k={k})")
    cpe = CpeEnumerator(graph, s, t, k)

    banner("preprocessing: distance maps and induced subgraph (Theorem 4)")
    # The index keeps its own maps to k - 1 hops, as far as any of its
    # tests reads; V_sub needs them to k hops.
    dist_s = DistanceMap(graph, s, horizon=k)
    dist_t = DistanceMap(graph.reverse_view(), t, horizon=k)
    for v in sorted(graph.vertices()):
        ds = dist_s.get(v)
        dt = dist_t.get(v)
        mark = "  in G_sub" if ds + dt <= k else "  PRUNED (Dist_s+Dist_t > k)"
        ds_text = str(ds) if ds <= k else "far"
        dt_text = str(dt) if dt <= k else "far"
        print(f"    v={v}: Dist_s={ds_text:>3}  Dist_t={dt_text:>3}{mark}")
    sub = induced_vertices(dist_s, dist_t, k)
    print(f"    |V_sub| = {len(sub)} of {graph.num_vertices}")

    banner("the partial path index (Optimizations 1 + 2)")
    print(f"    join plan: {cpe.plan.pairs}  (l={cpe.plan.l}, r={cpe.plan.r})")
    show_index(cpe)
    print("    note: no LP path ever ends at 7 or 8 — "
          "len + Dist_t > k prunes them (Fig. 2's remark)")

    banner("start-up enumeration (Algorithm 1)")
    for path in sorted(cpe.startup(), key=lambda p: (len(p), p)):
        i, j = cpe.plan.pair_for_length(len(path) - 1)
        vc = path[i]
        print(f"    {' -> '.join(map(str, path))}"
              f"   [pair ({i},{j}), middle vertex {vc}]")

    banner("insertion: e(8, 9, +) revives the dead-end branch")
    result = cpe.insert_edge(8, 9)
    print(f"    relaxed Dist_t vertices: {result.record.relaxed_t}")
    print(f"    new partial paths: {result.record.delta_partial_paths}")
    for path in sorted(result.paths):
        print(f"    NEW  {' -> '.join(map(str, path))}")

    banner("deletion: e(3, 5, -) kills paths and tightens distances")
    result = cpe.delete_edge(3, 5)
    print(f"    tightened Dist_s/Dist_t vertices: "
          f"{result.record.tightened_s}/{result.record.tightened_t}")
    for path in sorted(result.paths):
        print(f"    DEL  {' -> '.join(map(str, path))}")

    banner("final state")
    for path in sorted(cpe.startup(), key=lambda p: (len(p), p)):
        print(f"    {' -> '.join(map(str, path))}")
    stats = cpe.memory_stats()
    print(f"    index: {stats.path_count} partial paths, "
          f"~{stats.approx_bytes} bytes")


if __name__ == "__main__":
    main()

__all__ = [
    "banner",
    "show_index",
    "main",
]
