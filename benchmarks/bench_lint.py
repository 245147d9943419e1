"""Lint-engine benchmark: a full-repo pass must stay interactive.

`repro lint src/` runs on every CI build and is meant to be cheap
enough to run on every save; the budget is ten seconds for the whole
tree with the two-phase whole-program engine (it runs in well under
one on the reference machine).  The tree must have no finding, as CI
enforces.  The run is recorded under
``benchmarks/results/lint_full_repo.txt`` and its timings published as
``lint_*`` metrics for the regression gate.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from benchmarks.conftest import RESULTS_DIR, metric, publish_json
from repro.analysis import run_lint

SRC = Path(__file__).parent.parent / "src"

#: Hard wall-clock budget for one full-repo lint pass, in seconds.
#: Raised from 5s when the engine grew the whole-program phase
#: (call graph + mutation summaries + wire registries per pass).
FULL_REPO_BUDGET_SECONDS = 10.0


@pytest.fixture(scope="module")
def full_report():
    return run_lint([str(SRC)])


def bench_full_repo_lint_under_budget(full_report):
    assert full_report.findings == (), (
        "the repo must lint clean; found: "
        + "; ".join(f.render() for f in full_report.findings)
    )
    assert full_report.files_scanned > 50
    assert full_report.elapsed_seconds < FULL_REPO_BUDGET_SECONDS, (
        f"full-repo lint took {full_report.elapsed_seconds:.2f}s "
        f"(budget {FULL_REPO_BUDGET_SECONDS:.0f}s)"
    )

    # a second timed pass, with warm caches, for the record
    start = time.perf_counter()
    again = run_lint([str(SRC)])
    warm = time.perf_counter() - start
    per_file = warm / max(again.files_scanned, 1)
    text = "\n".join(
        [
            "full-repo lint (repro lint src/)",
            f"files        {again.files_scanned}",
            f"rules        {', '.join(again.rules)}",
            f"cold pass    {full_report.elapsed_seconds * 1e3:.1f} ms",
            f"warm pass    {warm * 1e3:.1f} ms",
            f"per file     {per_file * 1e3:.2f} ms",
            f"budget       {FULL_REPO_BUDGET_SECONDS:.0f} s",
        ]
    )
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "lint_full_repo.txt").write_text(
        text + "\n", encoding="utf-8"
    )
    publish_json(
        "lint_full_repo",
        {
            "lint_cold_pass_s": metric(full_report.elapsed_seconds),
            "lint_warm_pass_s": metric(warm),
            "lint_per_file_s": metric(per_file),
        },
    )


def bench_single_rule_pass_is_cheaper(full_report):
    start = time.perf_counter()
    single = run_lint([str(SRC)], select=["R005"])
    elapsed = time.perf_counter() - start
    assert single.rules == ("R005",)
    assert single.findings == ()
    assert elapsed < FULL_REPO_BUDGET_SECONDS


def bench_program_phase_skipped_for_module_rules(full_report):
    # selecting only module-phase rules must not pay for phase 1
    start = time.perf_counter()
    module_only = run_lint([str(SRC)], select=["R005", "R007"])
    module_elapsed = time.perf_counter() - start
    assert module_only.findings == ()
    assert module_elapsed < FULL_REPO_BUDGET_SECONDS / 2


__all__ = [
    "SRC",
    "FULL_REPO_BUDGET_SECONDS",
    "full_report",
    "bench_full_repo_lint_under_budget",
    "bench_single_rule_pass_is_cheaper",
    "bench_program_phase_skipped_for_module_rules",
]
