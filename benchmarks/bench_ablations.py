"""Ablations of the design choices DESIGN.md calls out.

Not a paper figure — these isolate the contribution of each CPE
ingredient:

- **dynamic cut** (Optimization 2) vs the fixed ``ceil(k/2)`` cut;
- **distance pruning** (Optimization 1) vs BC-JOIN's weak reachability
  pruning, measured through stored partial-path counts;
- **delta join** vs re-enumerating the full result from the index.
"""

import pytest

from benchmarks.conftest import metric, publish_json
from repro.baselines.bcjoin import BcJoinEnumerator
from repro.core.construction import build_index
from repro.core.enumerator import CpeEnumerator
from repro.core.plan import balanced_plan
from repro.graph import datasets
from repro.workloads.queries import hot_queries
from repro.workloads.updates import relevant_update_stream


@pytest.fixture(scope="module")
def workload(config):
    graph = datasets.load("LJ", config.scale)
    query = hot_queries(graph, 1, 6, 0.01, seed=config.seed)[0]
    return graph, query


def bench_ablation_dynamic_cut(benchmark, workload):
    """Index construction with the dynamic cut (Optimization 2 on)."""
    graph, q = workload
    benchmark.pedantic(
        lambda: build_index(graph, q.s, q.t, q.k), rounds=3, iterations=1
    )
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        publish_json(
            "ablation_dynamic_cut",
            {"build_mean_s": metric(stats.stats.mean)},
        )


def bench_ablation_fixed_cut(benchmark, workload):
    """Index construction forced to the BC-JOIN ``ceil(k/2)`` cut."""
    graph, q = workload
    plan = balanced_plan(q.k)
    benchmark.pedantic(
        lambda: build_index(graph, q.s, q.t, q.k, forced_plan=plan),
        rounds=3,
        iterations=1,
    )


def test_ablation_distance_pruning_stores_fewer_partials(config):
    """Optimization 1 vs weak pruning: stored partial-path counts."""
    graph, q = (
        datasets.load("LJ", config.scale),
        hot_queries(datasets.load("LJ", config.scale), 1, 6, 0.01,
                    seed=config.seed)[0],
    )
    weak = BcJoinEnumerator(graph, q.s, q.t, q.k)
    weak.paths()
    strong = build_index(graph, q.s, q.t, q.k, forced_plan=weak.plan)
    strong_count = len(strong.index.left) + len(strong.index.right)
    weak_count = weak.left_partials + weak.right_partials
    print(f"\npartials: strong pruning {strong_count}, weak {weak_count}")
    assert strong_count <= weak_count


def bench_ablation_delta_join(benchmark, workload, config):
    """Update enumeration via the delta join (the CPE way)."""
    graph, q = workload
    updates = relevant_update_stream(graph, q.s, q.t, q.k, 2, 2,
                                     seed=config.seed)
    if not updates:
        pytest.skip("no relevant updates")
    enum = CpeEnumerator(graph.copy(), q.s, q.t, q.k)
    enum.startup()

    def stream():
        for upd in updates:
            enum.apply(upd)
        for upd in reversed(updates):
            enum.apply(upd.inverted())

    benchmark.pedantic(stream, rounds=3, iterations=1)


def bench_ablation_complete_vs_strict_repair(benchmark, workload, config):
    """Cost of the complete admissibility repair (vs the paper-literal
    UDFS, which is cheaper only because it skips necessary work — see
    tests/test_strict_udfs.py)."""
    from repro.core.construction import build_index
    from repro.core.maintenance import IndexMaintainer

    graph, q = workload
    updates = relevant_update_stream(graph, q.s, q.t, q.k, 4, 0,
                                     seed=config.seed)
    if not updates:
        pytest.skip("no relevant updates")

    def run_inserts():
        working = graph.copy()
        built = build_index(working, q.s, q.t, q.k)
        maintainer = IndexMaintainer(
            working, built.index, built.dist_s, built.dist_t
        )
        for upd in updates:
            if working.add_edge(upd.u, upd.v):
                maintainer.insert_edge(upd.u, upd.v)

    benchmark.pedantic(run_inserts, rounds=3, iterations=1)


def bench_ablation_full_reenumeration(benchmark, workload, config):
    """The same updates answered by re-running Algorithm 1 on the index."""
    graph, q = workload
    updates = relevant_update_stream(graph, q.s, q.t, q.k, 2, 2,
                                     seed=config.seed)
    if not updates:
        pytest.skip("no relevant updates")
    enum = CpeEnumerator(graph.copy(), q.s, q.t, q.k)
    enum.startup()

    def stream():
        for upd in updates:
            enum.apply(upd)
            enum.startup()  # the naive "merge with all results" strategy
        for upd in reversed(updates):
            enum.apply(upd.inverted())
            enum.startup()

    benchmark.pedantic(stream, rounds=3, iterations=1)

__all__ = [
    "workload",
    "bench_ablation_dynamic_cut",
    "bench_ablation_fixed_cut",
    "test_ablation_distance_pruning_stores_fewer_partials",
    "bench_ablation_delta_join",
    "bench_ablation_complete_vs_strict_repair",
    "bench_ablation_full_reenumeration",
]
