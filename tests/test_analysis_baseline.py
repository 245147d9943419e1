"""Baseline ratchet, SARIF output, and golden (stable) reports.

The baseline freezes pre-existing findings by fingerprint — rule code,
repo-relative path, stripped line content — so CI fails only on *new*
findings while the frozen set ratchets downward.  The SARIF document
is what CI uploads to GitHub code scanning.  Both, plus the text/JSON
reporters under ``REPRO_LINT_STABLE=1``, must be byte-deterministic.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import render_json, render_text, run_lint
from repro.analysis.baseline import (
    SCHEMA,
    BaselineError,
    apply_baseline,
    fingerprint_counts,
    load_baseline,
    render_baseline,
    write_baseline,
)
from repro.analysis.reporters import SARIF_VERSION, render_sarif

ROOT = Path(__file__).parent.parent

_BAD = textwrap.dedent(
    """\
    def collect(item, acc=[]):
        acc.append(item)
        return acc
    """
)

_BAD_TWICE = _BAD + "\n\n" + textwrap.dedent(
    """\
    def gather(item, acc=[]):
        acc.append(item)
        return acc
    """
)


def _lint_file(tmp_path, source, name="mod.py"):
    target = tmp_path / name
    target.write_text(source, encoding="utf-8")
    return run_lint([str(target)], select=["R005"]), target


# ----------------------------------------------------------------------
# Baseline mechanics
# ----------------------------------------------------------------------
def test_baseline_round_trip_freezes_everything(tmp_path):
    report, _ = _lint_file(tmp_path, _BAD)
    assert report.findings
    path = tmp_path / "baseline.json"
    write_baseline(path, report.findings, tmp_path)
    result = apply_baseline(
        report.findings, load_baseline(path), tmp_path
    )
    assert result.ok
    assert result.new == () and len(result.frozen) == len(report.findings)
    assert result.stale == ()


def test_baseline_lets_new_findings_through(tmp_path):
    report, target = _lint_file(tmp_path, _BAD)
    path = tmp_path / "baseline.json"
    write_baseline(path, report.findings, tmp_path)

    target.write_text(_BAD_TWICE, encoding="utf-8")
    grown = run_lint([str(target)], select=["R005"])
    result = apply_baseline(grown.findings, load_baseline(path), tmp_path)
    assert len(result.frozen) == 1
    assert len(result.new) == 1
    assert "gather" in result.new[0].render() or result.new[0].line > 1


def test_baseline_survives_line_renumbering(tmp_path):
    report, target = _lint_file(tmp_path, _BAD)
    path = tmp_path / "baseline.json"
    write_baseline(path, report.findings, tmp_path)

    # an unrelated edit above the finding must not un-freeze it
    target.write_text("import os  # noqa\n\n\n" + _BAD, encoding="utf-8")
    moved = run_lint([str(target)], select=["R005"])
    assert moved.findings[0].line != report.findings[0].line
    result = apply_baseline(moved.findings, load_baseline(path), tmp_path)
    assert result.new == () and len(result.frozen) == 1


def test_baseline_counts_identical_lines(tmp_path):
    # two byte-identical violating lines -> one fingerprint, count 2
    source = _BAD + "\n\n" + _BAD  # same text twice: same fingerprint
    report, target = _lint_file(tmp_path, source)
    counts = fingerprint_counts(report.findings, tmp_path)
    assert list(counts.values()) == [2]

    path = tmp_path / "baseline.json"
    write_baseline(path, report.findings, tmp_path)
    # a third identical copy exceeds the frozen count and is new
    target.write_text(source + "\n\n" + _BAD, encoding="utf-8")
    grown = run_lint([str(target)], select=["R005"])
    result = apply_baseline(grown.findings, load_baseline(path), tmp_path)
    assert len(result.frozen) == 2 and len(result.new) == 1


def test_baseline_reports_stale_entries(tmp_path):
    report, target = _lint_file(tmp_path, _BAD)
    path = tmp_path / "baseline.json"
    write_baseline(path, report.findings, tmp_path)

    target.write_text("def collect(item, acc=None):\n    return acc\n",
                      encoding="utf-8")
    fixed = run_lint([str(target)], select=["R005"])
    result = apply_baseline(fixed.findings, load_baseline(path), tmp_path)
    assert result.new == () and result.frozen == ()
    assert len(result.stale) == 1 and result.stale[0].startswith("R005::")


def test_baseline_rejects_bad_files(tmp_path):
    target = tmp_path / "baseline.json"
    target.write_text("not json", encoding="utf-8")
    with pytest.raises(BaselineError):
        load_baseline(target)
    target.write_text(json.dumps({"schema": "other/1", "entries": {}}),
                      encoding="utf-8")
    with pytest.raises(BaselineError):
        load_baseline(target)
    with pytest.raises(BaselineError):
        load_baseline(tmp_path / "missing.json")


def test_baseline_document_shape(tmp_path):
    report, _ = _lint_file(tmp_path, _BAD)
    document = json.loads(render_baseline(report.findings, tmp_path))
    assert document["schema"] == SCHEMA
    (key,) = document["entries"]
    rule, rel, content = key.split("::", 2)
    assert rule == "R005"
    assert rel == "mod.py" and "/" not in rel
    assert content == "def collect(item, acc=[]):"


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
def test_sarif_document_structure(tmp_path):
    report, _ = _lint_file(tmp_path, _BAD)
    payload = json.loads(render_sarif(report, root=tmp_path))
    assert payload["version"] == SARIF_VERSION
    assert payload["$schema"].endswith("sarif-2.1.0.json")
    (run,) = payload["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert "R005" in rule_ids and "W001" in rule_ids and "R012" in rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "R005"
    assert result["level"] == "warning"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "mod.py"
    assert location["region"]["startLine"] == 1
    assert location["region"]["startColumn"] >= 1
    assert "suppressions" not in result


def test_sarif_marks_baseline_frozen_findings_suppressed(tmp_path):
    import dataclasses

    report, _ = _lint_file(tmp_path, _BAD)
    path = tmp_path / "baseline.json"
    write_baseline(path, report.findings, tmp_path)
    result = apply_baseline(
        report.findings, load_baseline(path), tmp_path
    )
    emptied = dataclasses.replace(report, findings=result.new)
    payload = json.loads(
        render_sarif(emptied, frozen=result.frozen, root=tmp_path)
    )
    (run,) = payload["runs"]
    (suppressed,) = run["results"]
    assert suppressed["suppressions"][0]["kind"] == "external"


def test_sarif_levels(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
    report = run_lint([str(tmp_path / "broken.py")])
    payload = json.loads(render_sarif(report, root=tmp_path))
    (result,) = payload["runs"][0]["results"]
    assert result["ruleId"] == "E001" and result["level"] == "error"


# ----------------------------------------------------------------------
# Golden (stable) output
# ----------------------------------------------------------------------
def test_stable_text_output_is_deterministic(tmp_path):
    report, target = _lint_file(tmp_path, _BAD)
    expected = (
        f"{target}:1:22: R005 mutable default argument (list literal) "
        "in 'collect'; default to None and create inside the function\n"
        "1 finding (1 files scanned)"
    )
    assert render_text(report, timings=False) == expected


def test_stable_json_zeroes_elapsed(tmp_path):
    report, _ = _lint_file(tmp_path, _BAD)
    payload = json.loads(render_json(report, timings=False))
    assert payload["elapsed_seconds"] == 0.0
    timed = json.loads(render_json(report, timings=True))
    assert timed["elapsed_seconds"] > 0.0


def test_sarif_output_is_byte_stable(tmp_path):
    report, _ = _lint_file(tmp_path, _BAD)
    first = render_sarif(report, root=tmp_path)
    second = render_sarif(report, root=tmp_path)
    assert first == second
    assert "elapsed" not in first


# ----------------------------------------------------------------------
# CLI: stable env, baseline flags, error handling
# ----------------------------------------------------------------------
def test_cli_stable_env_hides_timings(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    target = tmp_path / "clean.py"
    target.write_text("X = 1\n\n__all__ = []\n", encoding="utf-8")
    monkeypatch.setenv("REPRO_LINT_STABLE", "1")
    assert main(["lint", str(target)]) == 0
    out = capsys.readouterr().out
    assert out == "0 findings (1 files scanned)\n"

    assert main(["lint", "--timings", str(target)]) == 0
    out = capsys.readouterr().out
    assert "scanned, " in out and out.rstrip().endswith("s)")


def test_cli_select_bogus_is_a_clean_error(tmp_path, capsys):
    """Regression: an unknown --select code must not raise a traceback."""
    from repro.cli import main

    target = tmp_path / "mod.py"
    target.write_text("X = 1\n", encoding="utf-8")
    code = main(["lint", "--select", "BOGUS", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown rule 'BOGUS'" in captured.err
    assert "known rules: R001" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_cli_baseline_flow(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "pyproject.toml").write_text("[project]\n", encoding="utf-8")
    target = tmp_path / "mod.py"
    target.write_text(_BAD, encoding="utf-8")

    # 1) without a baseline the finding fails the run
    assert main(["lint", "--select", "R005", str(target)]) == 1
    capsys.readouterr()

    # 2) freeze it
    assert main(["lint", "--select", "R005", "--update-baseline",
                 str(target)]) == 0
    out = capsys.readouterr().out
    assert "baseline analysis-baseline.json updated" in out
    assert (tmp_path / "analysis-baseline.json").exists()

    # 3) frozen -> green
    assert main(["lint", "--select", "R005",
                 "--baseline", "analysis-baseline.json", str(target)]) == 0
    out = capsys.readouterr().out
    assert "frozen by the baseline" in out

    # 4) a new finding still fails
    target.write_text(_BAD_TWICE, encoding="utf-8")
    assert main(["lint", "--select", "R005",
                 "--baseline", "analysis-baseline.json", str(target)]) == 1
    capsys.readouterr()

    # 5) fixing everything reports the stale entries
    target.write_text("X = 1\n", encoding="utf-8")
    assert main(["lint", "--select", "R005",
                 "--baseline", "analysis-baseline.json", str(target)]) == 0
    captured = capsys.readouterr()
    assert "stale baseline entry" in captured.err


def test_cli_sarif_format(tmp_path, capsys):
    from repro.cli import main

    target = tmp_path / "mod.py"
    target.write_text(_BAD, encoding="utf-8")
    assert main(["lint", "--format", "sarif", "--select", "R005",
                 str(target)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == SARIF_VERSION
    assert payload["runs"][0]["results"][0]["ruleId"] == "R005"


def test_cli_no_unused_noqa(tmp_path, capsys):
    from repro.cli import main

    target = tmp_path / "mod.py"
    target.write_text(
        'VALUE = 1  # repro: noqa[R005]\n\n__all__ = ["VALUE"]\n',
        encoding="utf-8",
    )
    assert main(["lint", str(target)]) == 1
    assert main(["lint", "--no-unused-noqa", str(target)]) == 0
    capsys.readouterr()


def test_shipped_baseline_is_valid_and_minimal():
    # Known findings are fixed, not frozen: the shipped file loads and
    # holds no entries.
    assert load_baseline(ROOT / "analysis-baseline.json") == {}
