"""Shared infrastructure for the benchmark suite.

Every ``bench_figN`` module does two things:

1. regenerates the paper table/figure through its experiment driver
   (printed to stdout — run with ``-s`` to see it — and saved under
   ``benchmarks/results/latest/``, which git ignores; the committed
   tables in ``benchmarks/results/`` are the recorded reference),
   asserting the qualitative *shape* the paper reports;
2. times the representative operations with pytest-benchmark.

Knobs: ``REPRO_BENCH_SCALE`` (default 0.5), ``REPRO_BENCH_QUERIES``,
``REPRO_BENCH_UPDATES`` control the workload size.

Every benchmark also records a machine-readable result under
``benchmarks/results/*.json`` in the common ``repro-bench/1`` schema
(see docs/OBSERVABILITY.md) — the input format of
``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

import pytest

from repro.experiments.common import ExperimentConfig, ExperimentResult

RESULTS_DIR = Path(__file__).parent / "results"
#: Where each run writes its regenerated paper tables.
LATEST_DIR = RESULTS_DIR / "latest"

#: Version tag carried by every benchmark result file.
BENCH_SCHEMA = "repro-bench/1"


def bench_config(**overrides) -> ExperimentConfig:
    """The benchmark-suite experiment configuration."""
    base = dict(
        scale=float(os.environ.get("REPRO_BENCH_SCALE", 0.5)),
        num_queries=int(os.environ.get("REPRO_BENCH_QUERIES", 2)),
        num_updates=int(os.environ.get("REPRO_BENCH_UPDATES", 10)),
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def metric(
    value: float, unit: str = "seconds", direction: str = "lower"
) -> Dict[str, Any]:
    """One schema metric: ``direction`` says which way is better."""
    if direction not in ("lower", "higher"):
        raise ValueError("direction must be 'lower' or 'higher'")
    return {"value": float(value), "unit": unit, "direction": direction}


def publish_json(
    benchmark_name: str,
    metrics: Dict[str, Dict[str, Any]],
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, Any]:
    """Write one ``repro-bench/1`` result to ``results/<name>.json``."""
    cfg: Dict[str, Any] = {}
    if config is not None:
        cfg = {
            "scale": config.scale,
            "num_queries": config.num_queries,
            "num_updates": config.num_updates,
            "k": config.k,
            "seed": config.seed,
        }
    payload = {
        "schema": BENCH_SCHEMA,
        "benchmark": benchmark_name,
        "config": cfg,
        "metrics": metrics,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{benchmark_name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return payload


def result_metrics(result: ExperimentResult) -> Dict[str, Dict[str, Any]]:
    """Schema metrics derived from an experiment table.

    One metric per numeric cell, named ``<row label>.<column header>``;
    experiment tables report costs, so every derived metric is
    ``direction="lower"``.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    for row in result.rows:
        label = row[0]
        for header, cell in zip(result.headers[1:], row[1:]):
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                continue
            metrics[f"{label}.{header}"] = metric(cell, unit="")
    return metrics


def publish(result: ExperimentResult, filename: str) -> ExperimentResult:
    """Print a regenerated table and persist it for the record.

    Writes the human-readable table to ``results/latest/<filename>``
    and the derived ``repro-bench/1`` metrics to
    ``results/<stem>.json``.
    """
    text = result.format()
    print()
    print(text)
    LATEST_DIR.mkdir(parents=True, exist_ok=True)
    (LATEST_DIR / filename).write_text(text + "\n", encoding="utf-8")
    stem = Path(filename).stem
    publish_json(stem, result_metrics(result), config=bench_config())
    return result


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """Session-wide benchmark configuration."""
    return bench_config()

__all__ = [
    "RESULTS_DIR",
    "LATEST_DIR",
    "BENCH_SCHEMA",
    "bench_config",
    "metric",
    "publish_json",
    "result_metrics",
    "publish",
    "config",
]
