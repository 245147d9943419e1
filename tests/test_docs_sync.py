"""Documentation-sync tests: the README's code must actually run."""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def python_blocks(markdown_path):
    text = markdown_path.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def test_readme_quickstart_block_runs():
    blocks = python_blocks(ROOT / "README.md")
    assert blocks, "README lost its quickstart code block"
    namespace = {}
    exec(blocks[0], namespace)  # noqa: S102 - doc sync by construction
    cpe = namespace["cpe"]
    # the quickstart's claimed end state holds: deleting (s, a) leaves
    # only the path through b
    assert set(cpe.startup()) == {("s", "b", "t")}
    assert set(namespace["result"].paths) == {
        ("s", "a", "t"), ("s", "a", "b", "t")
    }


def test_package_docstring_example_runs():
    import repro

    match = re.search(r"    (from repro.*?)(?:\n\n|\Z)", repro.__doc__, re.S)
    assert match, "package docstring lost its example"
    code = "\n".join(
        line[4:] if line.startswith("    ") else line
        for line in match.group(1).splitlines()
        if not line.strip().startswith("print(")  # keep test output quiet
        or True
    )
    namespace = {}
    exec(code.replace("print(", "_ = ("), namespace)  # noqa: S102


def test_experiments_md_references_archived_run():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    archive = ROOT / "benchmarks" / "results" / "full_run_scale1.txt"
    assert "full_run_scale1.txt" in text
    assert archive.exists(), "the archived run EXPERIMENTS.md cites is missing"
    archived = archive.read_text(encoding="utf-8")
    for marker in ("Table I", "Fig. 7", "Fig. 12", "Throughput"):
        assert marker in archived


def test_design_md_lists_every_experiment_driver():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    for module in (
        "table1", "fig6_startup", "fig7_update", "fig8_insdel",
        "fig9_vary_k", "fig10_hot", "fig11_scalability", "fig12_memory",
        "ablation", "throughput", "density_sweep", "csm_variants",
    ):
        assert module in text, f"DESIGN.md does not mention {module}"


def test_analysis_docs_cover_every_rule():
    """docs/ANALYSIS.md, README and API.md agree on the lint surface."""
    from repro.analysis import all_rules

    analysis_md = (ROOT / "docs" / "ANALYSIS.md").read_text(encoding="utf-8")
    for rule in all_rules():
        assert f"### {rule.code}" in analysis_md, (
            f"docs/ANALYSIS.md lost the section for {rule.code}"
        )
        assert rule.name in analysis_md

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "repro lint" in readme
    assert "docs/ANALYSIS.md" in readme

    api_md = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert "repro lint" in api_md, "API.md command block lost `repro lint`"
    assert "`repro.analysis`" in api_md


def test_analysis_md_examples_reflect_the_rules():
    """The bad/good snippets in docs/ANALYSIS.md match linter behaviour."""
    import textwrap

    from repro.analysis import run_lint

    bad = textwrap.dedent(
        """\
        def collect(item, acc=[]):
            acc.append(item)
        """
    )
    good = textwrap.dedent(
        """\
        def collect(item, acc=None):
            if acc is None:
                acc = []
            acc.append(item)
        """
    )
    import tempfile
    from pathlib import Path as _Path

    with tempfile.TemporaryDirectory() as tmp:
        bad_path = _Path(tmp) / "bad.py"
        good_path = _Path(tmp) / "good.py"
        bad_path.write_text(bad, encoding="utf-8")
        good_path.write_text(good, encoding="utf-8")
        assert run_lint([str(bad_path)], select=["R005"]).for_rule("R005")
        assert not run_lint([str(good_path)], select=["R005"]).findings


def test_api_md_names_exist():
    """Spot-check that classes named in docs/API.md are importable."""
    import repro
    import repro.core.serialize  # read below as core.serialize
    from repro import apps, baselines, core, related, service, workloads

    text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    for name, owner in (
        ("CpeEnumerator", repro),
        ("MultiPairMonitor", core),
        ("PairKey", core),
        ("save_enumerator", core.serialize),
        ("CsmStarEnumerator", baselines),
        ("CsmDcgEnumerator", baselines),
        ("RiskMonitor", apps),
        ("CycleMonitor", apps),
        ("k_shortest_simple_paths", related),
        ("run_dynamic", workloads),
        ("service_traffic", workloads),
        ("PathQueryEngine", service),
        ("PathQueryServer", service),
        ("ServiceClient", service),
        ("IndexCache", service),
        ("AdmissionController", service),
    ):
        assert name in text
        assert hasattr(owner, name), f"{name} documented but not exported"


def test_docs_name_no_removed_subsystem():
    """Sharding, batching and the planner are gone; so are their docs."""
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    for path in docs:
        text = path.read_text(encoding="utf-8")
        for name in (
            "repro.parallel", "repro.batching", "repro.planner",
            "repro.obs.distributed", "--workers", "--batch-window",
            "--planner", "--per-shard",
        ):
            assert name not in text, f"{path.name} still names {name}"
