"""Rendering a lint run: text, JSON, or SARIF 2.1.0.

All three renderers are pure functions of the report, so their output
is golden-testable: pass ``timings=False`` — or set
``REPRO_LINT_STABLE=1`` and let the CLI do it — and every byte of the
output is deterministic.

``render_sarif`` emits the subset of SARIF 2.1.0 that GitHub code
scanning consumes: one run, the rule catalogue on ``tool.driver``,
and one result per finding with a ``physicalLocation``.  Columns are
converted from the 0-based AST offsets to the 1-based convention SARIF
requires.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.engine import LintReport

SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"

_JsonValue = Union[str, int, float, bool, None, List["_JsonValue"],
                   Dict[str, "_JsonValue"]]


def render_text(report: "LintReport", timings: bool = True) -> str:
    """One ``path:line:col: RULE message`` line per finding + a summary."""
    lines = [finding.render() for finding in report.findings]
    noun = "finding" if len(report.findings) == 1 else "findings"
    summary = f"{len(report.findings)} {noun} " \
        f"({report.files_scanned} files scanned"
    if timings:
        summary += f", {report.elapsed_seconds:.2f}s"
    lines.append(summary + ")")
    return "\n".join(lines)


def render_json(report: "LintReport", timings: bool = True) -> str:
    """The whole report as one JSON document (stable key order)."""
    payload = {
        "findings": [finding.as_dict() for finding in report.findings],
        "files_scanned": report.files_scanned,
        "elapsed_seconds": round(report.elapsed_seconds, 6)
        if timings
        else 0.0,
        "rules": list(report.rules),
        "ok": report.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _level_for(rule: str) -> str:
    if rule.startswith("E"):
        return "error"
    if rule.startswith("W"):
        return "note"
    return "warning"


def _artifact_uri(path: str, root: Optional[Path]) -> str:
    resolved = Path(path).resolve()
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return Path(path).as_posix()


def _sarif_result(
    finding: Finding, root: Optional[Path]
) -> Dict[str, _JsonValue]:
    return {
        "ruleId": finding.rule,
        "level": _level_for(finding.rule),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": _artifact_uri(finding.path, root),
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
    }


def render_sarif(report: "LintReport", root: Optional[Path] = None) -> str:
    """The run as a SARIF 2.1.0 document for GitHub code scanning: one
    result per finding, with paths relative to ``root`` when given."""
    from repro.analysis.registry import all_rules

    descriptors: List[_JsonValue] = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.name},
            "fullDescription": {"text": rule.description},
        }
        for rule in all_rules()
    ]
    results: List[_JsonValue] = [
        _sarif_result(finding, root) for finding in report.findings
    ]
    payload: Dict[str, _JsonValue] = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "docs/ANALYSIS.md",
                        "version": "1.0.0",
                        "rules": descriptors,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


__all__ = [
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "render_text",
    "render_json",
    "render_sarif",
]
