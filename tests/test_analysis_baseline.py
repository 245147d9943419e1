"""SARIF output, golden (stable) reports and the lint CLI's flags.

The SARIF document is what CI uploads to GitHub code scanning.  It and
the text/JSON reporters under ``REPRO_LINT_STABLE=1`` must be
byte-deterministic.  Inline ``# repro: noqa[RULE]`` is the only
suppression: there is no findings baseline to freeze known findings.
"""

import json
import textwrap

import pytest

from repro.analysis import render_json, render_text, run_lint
from repro.analysis.reporters import SARIF_VERSION, render_sarif

_BAD = textwrap.dedent(
    """\
    def collect(item, acc=[]):
        acc.append(item)
        return acc
    """
)


def _lint_file(tmp_path, source, name="mod.py"):
    target = tmp_path / name
    target.write_text(source, encoding="utf-8")
    return run_lint([str(target)], select=["R005"]), target


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
# CLI: stable env, flags, error handling
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


def test_cli_has_no_baseline_flags(tmp_path, capsys):
    from repro.cli import main

    target = tmp_path / "mod.py"
    target.write_text("X = 1\n", encoding="utf-8")
    for flag in (["--baseline", "analysis-baseline.json"], ["--update-baseline"]):
        with pytest.raises(SystemExit) as exc:
            main(["lint", *flag, str(target)])
        assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
