"""Table I — dataset statistics (regeneration + stats timing)."""

import pytest

from benchmarks.conftest import publish
from repro.experiments import table1
from repro.graph import datasets
from repro.graph.stats import diameter_estimate


@pytest.fixture(scope="module")
def table(config):
    result = publish(table1.run(config), "table1.txt")
    # shape: size ordering of the analogues matches the paper's ordering
    sizes = result.series("|V|")
    assert sizes[0] == min(sizes)   # RT smallest
    assert sizes[-1] == max(sizes)  # TW largest
    return result


def bench_table1_row_stats(benchmark, table, config):
    """Cost of one Table I row (BFS diameter estimation)."""
    graph = datasets.load("WG", config.scale)
    benchmark.pedantic(
        lambda: diameter_estimate(graph, sample_size=16, seed=1),
        rounds=3,
        iterations=1,
    )


def bench_table1_dataset_build(benchmark, config):
    """Cost of materializing one dataset analogue."""
    benchmark.pedantic(
        lambda: datasets.load("EP", config.scale), rounds=3, iterations=1
    )

__all__ = [
    "table",
    "bench_table1_row_stats",
    "bench_table1_dataset_build",
]
