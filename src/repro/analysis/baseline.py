"""The findings baseline: freeze what exists, fail only what is new.

Turning on a new whole-program rule over a mature tree surfaces
pre-existing findings that are real but not this PR's problem.  The
baseline ratchet keeps CI green over those while still failing the
build on anything *new*: ``repro lint --baseline analysis-baseline.json``
subtracts the frozen set, and ``--update-baseline`` regenerates the
file after an intentional cleanup (the ratchet only tightens — commit
the shrinking file alongside the fixes).

A finding is identified by a **fingerprint** that survives unrelated
edits: the rule code, the repo-root-relative path, and the stripped
text of the flagged source line.  Line *numbers* are deliberately not
part of it — inserting an import above a frozen finding must not
un-freeze it.  Identical lines collapse into one fingerprint with a
count: the baseline forgives at most ``count`` findings per
fingerprint, so pasting a second copy of a frozen defect still fails.

File format (committed, diff-reviewable)::

    {
      "schema": "repro-lint-baseline/1",
      "entries": {
        "R010::src/repro/service/admission.py::self._expired += 1": 2
      }
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding

SCHEMA = "repro-lint-baseline/1"

_SEPARATOR = "::"


class BaselineError(ValueError):
    """An unreadable or wrong-schema baseline file."""


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of subtracting a baseline from a run's findings."""

    new: Tuple[Finding, ...]
    frozen: Tuple[Finding, ...]
    stale: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when no finding survived the subtraction."""
        return not self.new


class _LineCache:
    """Source lines per file, read once."""

    def __init__(self) -> None:
        self._lines: Dict[str, List[str]] = {}

    def line(self, path: str, lineno: int) -> str:
        if path not in self._lines:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except OSError:
                text = ""
            self._lines[path] = text.splitlines()
        lines = self._lines[path]
        if 0 < lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""


def _relative(path: str, root: Optional[Path]) -> str:
    resolved = Path(path).resolve()
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return Path(path).as_posix()


def fingerprint(
    finding: Finding, root: Optional[Path], cache: Optional[_LineCache] = None
) -> str:
    """The stable identity of one finding (rule, rel path, line text)."""
    cache = cache or _LineCache()
    content = cache.line(finding.path, finding.line)
    rel = _relative(finding.path, root)
    return _SEPARATOR.join((finding.rule, rel, content))


def fingerprint_counts(
    findings: Sequence[Finding], root: Optional[Path]
) -> Dict[str, int]:
    """``{fingerprint: occurrences}`` over ``findings``."""
    cache = _LineCache()
    counts: Dict[str, int] = {}
    for finding in findings:
        key = fingerprint(finding, root, cache)
        counts[key] = counts.get(key, 0) + 1
    return counts


def load_baseline(path: Path) -> Dict[str, int]:
    """The frozen fingerprint counts stored at ``path``."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baseline {path} is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise BaselineError(
            f"baseline {path} does not declare schema {SCHEMA!r}"
        )
    entries = payload.get("entries")
    if not isinstance(entries, dict):
        raise BaselineError(f"baseline {path} has no 'entries' object")
    counts: Dict[str, int] = {}
    for key, value in entries.items():
        if not isinstance(key, str) or not isinstance(value, int):
            raise BaselineError(
                f"baseline {path}: entry {key!r} must map str -> int"
            )
        counts[key] = value
    return counts


def apply_baseline(
    findings: Sequence[Finding],
    baseline: Dict[str, int],
    root: Optional[Path],
) -> BaselineResult:
    """Split ``findings`` into new vs frozen, and report stale entries.

    Findings are consumed against the baseline counts in report order;
    the first ``count`` occurrences of a fingerprint freeze, any excess
    is new.  Baseline entries never matched by the run come back as
    ``stale`` — cleanup happened, so the file should shrink.
    """
    cache = _LineCache()
    remaining = dict(baseline)
    new: List[Finding] = []
    frozen: List[Finding] = []
    for finding in findings:
        key = fingerprint(finding, root, cache)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            frozen.append(finding)
        else:
            new.append(finding)
    stale = tuple(
        sorted(key for key, count in remaining.items() if count > 0)
    )
    return BaselineResult(
        new=tuple(new), frozen=tuple(frozen), stale=stale
    )


def render_baseline(
    findings: Sequence[Finding], root: Optional[Path]
) -> str:
    """The committed baseline document for the current findings."""
    counts = fingerprint_counts(findings, root)
    payload = {
        "schema": SCHEMA,
        "entries": {key: counts[key] for key in sorted(counts)},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_baseline(
    path: Path, findings: Sequence[Finding], root: Optional[Path]
) -> int:
    """Write the baseline for ``findings``; returns the entry count."""
    document = render_baseline(findings, root)
    path.write_text(document, encoding="utf-8")
    return len(fingerprint_counts(findings, root))


__all__ = [
    "SCHEMA",
    "BaselineError",
    "BaselineResult",
    "fingerprint",
    "fingerprint_counts",
    "load_baseline",
    "apply_baseline",
    "render_baseline",
    "write_baseline",
]
