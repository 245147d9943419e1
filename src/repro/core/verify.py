"""Self-verification of a live enumerator.

A production monitor that runs for months wants an occasional end-to-end
audit: is the maintained state still exactly what a fresh build would
produce?  :func:`verify_enumerator` checks every maintained structure
against recomputation and returns human-readable findings (empty = all
good).  The same checks back the test suite's invariant assertions.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.construction import build_index
from repro.core.enumerator import CpeEnumerator
from repro.core.index import BitSpace
from repro.core.paths import Path, exists_in, hops, is_simple


def verify_enumerator(cpe: CpeEnumerator) -> List[str]:
    """Audit ``cpe`` against recomputation; returns findings (empty = ok)."""
    findings: List[str] = []

    if not cpe.dist_s.is_consistent():
        findings.append("Dist_s diverges from a fresh BFS")
    if not cpe.dist_t.is_consistent():
        findings.append("Dist_t diverges from a fresh BFS on G_sub")

    findings.extend(_structural_checks(cpe))
    findings.extend(_mask_checks(cpe))

    fresh = build_index(cpe.graph, cpe.s, cpe.t, cpe.k, forced_plan=cpe.plan)
    if cpe.index.direct_edge != fresh.index.direct_edge:
        findings.append(
            f"direct-edge flag is {cpe.index.direct_edge}, "
            f"fresh build says {fresh.index.direct_edge}"
        )
    for side in ("left", "right"):
        maintained = getattr(cpe.index, side).as_dict()
        rebuilt = getattr(fresh.index, side).as_dict()
        if maintained == rebuilt:
            continue
        for length in sorted(set(maintained) | set(rebuilt)):
            got = maintained.get(length, {})
            want = rebuilt.get(length, {})
            if got == want:
                continue
            for vertex in sorted(set(got) | set(want), key=repr):
                missing = want.get(vertex, set()) - got.get(vertex, set())
                extra = got.get(vertex, set()) - want.get(vertex, set())
                if missing:
                    findings.append(
                        f"{side.upper()}_{length}({vertex!r}) misses "
                        f"{sorted(missing)[:3]}"
                    )
                if extra:
                    findings.append(
                        f"{side.upper()}_{length}({vertex!r}) holds stale "
                        f"{sorted(extra)[:3]}"
                    )
    return findings


def _structural_checks(cpe: CpeEnumerator) -> List[str]:
    """Cheap per-path sanity independent of any rebuild."""
    findings: List[str] = []
    graph, s, t, k = cpe.graph, cpe.s, cpe.t, cpe.k
    plan = cpe.plan
    for length, vertex, path in cpe.index.left.entries():
        if hops(path) != length or path[-1] != vertex:
            findings.append(f"LP misfiled: {path} under ({vertex!r}, {length})")
        elif not is_simple(path) or path[0] != s or t in path:
            findings.append(f"LP malformed: {path}")
        elif length > plan.l:
            findings.append(f"LP too long for plan l={plan.l}: {path}")
        elif not exists_in(path, graph):
            findings.append(f"LP uses missing edges: {path}")
        elif length + cpe.dist_t.get(vertex) > k:
            findings.append(f"LP inadmissible: {path}")
    for length, vertex, path in cpe.index.right.entries():
        if hops(path) != length or path[0] != vertex:
            findings.append(f"RP misfiled: {path} under ({vertex!r}, {length})")
        elif not is_simple(path) or path[-1] != t or s in path:
            findings.append(f"RP malformed: {path}")
        elif length > plan.r:
            findings.append(f"RP too long for plan r={plan.r}: {path}")
        elif not exists_in(path, graph):
            findings.append(f"RP uses missing edges: {path}")
        elif length + cpe.dist_s.get(vertex) > k:
            findings.append(f"RP inadmissible: {path}")
    return findings


def _mask_checks(cpe: CpeEnumerator) -> List[str]:
    """Every stored mask is its path's vertex set in the index's bits.

    The join trusts the masks written with the paths; a stale one makes
    it emit a non-simple path or drop a simple one.
    """
    findings: List[str] = []
    bits = cpe.index.bits
    for side, buckets in (("LP", cpe.index.left), ("RP", cpe.index.right)):
        masks = buckets.masks()
        stored = 0
        for path in buckets.paths():
            stored += 1
            mask = masks.get(path)
            if mask is None or mask != _vertex_mask(bits, path):
                findings.append(f"{side} stale mask: {path} stores {mask}")
        if len(masks) != stored:
            findings.append(
                f"{side} holds {len(masks)} masks for {stored} paths"
            )
    return findings


def _vertex_mask(bits: BitSpace, path: Path) -> Optional[int]:
    """``path``'s vertex set in ``bits``; None if a vertex has no bit."""
    mask = 0
    for v in path:
        bit = bits.get(v)
        if bit is None:
            return None
        mask |= bit
    return mask


def assert_verified(cpe: CpeEnumerator) -> None:
    """Raise :class:`AssertionError` with findings if the audit fails."""
    findings = verify_enumerator(cpe)
    if findings:
        summary = "\n  ".join(findings[:10])
        raise AssertionError(f"enumerator audit failed:\n  {summary}")


__all__ = [
    "verify_enumerator",
    "assert_verified",
]
