"""Fig. 11 — scalability on TW: component breakdown (regeneration + timing)."""

import pytest

from benchmarks.conftest import publish
from repro.core.construction import build_index
from repro.core.enumeration import count_full
from repro.experiments import fig11_scalability
from repro.graph import datasets
from repro.workloads.queries import hot_queries

KS = (3, 4, 5, 6)


@pytest.fixture(scope="module")
def figure(config):
    result = publish(
        fig11_scalability.run(config, ks=KS), "fig11_scalability.txt"
    )
    # shape: the per-update cost stays far below a whole static query
    overall = result.series("Overall")
    update = result.series("Update")
    assert all(u <= o for u, o in zip(update, overall))
    # result counts grow with k
    sizes = result.series("|P|")
    assert sizes[-1] >= sizes[0]
    return result


@pytest.fixture(scope="module")
def tw_query(config):
    graph = datasets.load("TW", config.scale)
    query = hot_queries(graph, 1, 6, 0.10, seed=config.seed)[0]
    return graph, query


def bench_fig11_prep_and_ic(benchmark, figure, tw_query):
    """Prep + IC: distance maps and index construction on TW."""
    graph, q = tw_query
    benchmark.pedantic(
        lambda: build_index(graph, q.s, q.t, q.k), rounds=3, iterations=1
    )


def bench_fig11_startup_enumeration(benchmark, tw_query):
    """SE: enumeration over a prebuilt index on TW."""
    graph, q = tw_query
    built = build_index(graph, q.s, q.t, q.k)
    benchmark.pedantic(
        lambda: count_full(built.index), rounds=3, iterations=1
    )

__all__ = [
    "KS",
    "figure",
    "tw_query",
    "bench_fig11_prep_and_ic",
    "bench_fig11_startup_enumeration",
]
