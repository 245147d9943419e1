"""Query-level EXPLAIN / ANALYZE for hop-constrained path queries.

``repro.obs`` metrics aggregate across every query a process serves;
this module answers the per-query question — *why did this query cost
what it cost* — in the spirit of a database ``EXPLAIN``:

- the dynamic-cut decisions (Optimization 2): which side each growth
  step extended, and the two frontier sizes (the cost estimates) that
  drove the choice, ending at the ``(l, r)`` split with ``l + r = k``;
- the distance-pruning counters (Optimization 1): per BFS level, how
  many expansions were attempted and how many partial paths survived;
- the index shape: ``LP_i`` / ``RP_j`` bucket sizes per length;
- the join plan with, per ``(i, j)`` pair, the cut-vertex count, the
  estimated output cardinality (``Σ_v |LP_i(v)|·|RP_j(v)|`` over shared
  middle vertices — an upper bound that ignores the disjointness
  filter), and — under ANALYZE — the actual probe and emit counts,
  whose sum (plus the direct edge) is the k-st path total.

Every number is read off a record the serving code already keeps, so
an explained query runs exactly the code that serves it: the cut
decisions and level counts are the build's
:class:`~repro.core.construction.ConstructionStats` rows, the plan,
bucket sizes and direct edge are the index's, the estimates are the
join program's per-step totals, and ANALYZE's emits come from
:func:`~repro.core.enumeration.count_by_pair` over the one join body.
:func:`explain_query` is the driver behind ``repro explain``, the
``explain`` wire op, and ``ServiceClient.explain()``.

``repro.core`` imports ``repro.obs``, whose package imports this
module, so the drivers import the core lazily.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.trace import TraceBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core import
    from repro.core.construction import BuildResult
    from repro.graph.digraph import DynamicDiGraph, Vertex


@dataclass(frozen=True)
class CutStep:
    """One dynamic-cut growth decision (Optimization 2)."""

    step: int            # growth step index (2, 3, ... — level sums)
    side: str            # "left" or "right"
    left_frontier: int   # frontier-cost estimate for the left side
    right_frontier: int  # frontier-cost estimate for the right side
    forced: bool         # True when a forced plan bypassed the cut
    ts: float            # perf_counter stamp (for trace placement)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view."""
        return {
            "step": self.step,
            "side": self.side,
            "left_frontier": self.left_frontier,
            "right_frontier": self.right_frontier,
            "forced": self.forced,
        }


@dataclass(frozen=True)
class LevelStats:
    """One BFS level's admissibility accounting (Optimization 1)."""

    side: str        # "left" or "right"
    level: int       # partial-path length this level produced
    expansions: int  # successor expansions attempted
    admitted: int    # partial paths that passed the distance test
    ts: float

    @property
    def pruned(self) -> int:
        """Expansions discarded by the admissibility test."""
        return self.expansions - self.admitted

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view."""
        return {
            "side": self.side,
            "level": self.level,
            "expansions": self.expansions,
            "admitted": self.admitted,
            "pruned": self.pruned,
        }


@dataclass
class JoinPairStats:
    """One ``(i, j)`` join pair's measured cardinalities (ANALYZE)."""

    i: int
    j: int
    cut_vertices: int  # middle vertices present on both sides
    probes: int        # (lp, rp) combinations tested for disjointness
    emitted: int       # full paths produced by this pair
    ts: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view."""
        return {
            "i": self.i,
            "j": self.j,
            "cut_vertices": self.cut_vertices,
            "probes": self.probes,
            "emitted": self.emitted,
        }


@dataclass
class ExplainRecord:
    """Everything one explained query reports (see :func:`explain_build`)."""

    cut_steps: List[CutStep] = field(default_factory=list)
    levels: List[LevelStats] = field(default_factory=list)
    plan_pairs: Tuple[Tuple[int, int], ...] = ()
    left_buckets: Dict[int, int] = field(default_factory=dict)
    right_buckets: Dict[int, int] = field(default_factory=dict)
    direct_edge: bool = False
    join_pairs: List[JoinPairStats] = field(default_factory=list)
    total_paths: Optional[int] = None

    @property
    def split(self) -> Tuple[int, int]:
        """The chosen ``(l, r)`` with ``l + r = k`` (``(0, 0)`` if unset)."""
        return self.plan_pairs[-1] if self.plan_pairs else (0, 0)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view of the whole record."""
        out: Dict[str, Any] = {
            "cut": {
                "split": list(self.split),
                "steps": [step.as_dict() for step in self.cut_steps],
            },
            "levels": [level.as_dict() for level in self.levels],
            "plan": [list(pair) for pair in self.plan_pairs],
            "buckets": {
                "left": {str(n): c for n, c in sorted(self.left_buckets.items())},
                "right": {str(n): c for n, c in sorted(self.right_buckets.items())},
                "direct_edge": self.direct_edge,
            },
        }
        if self.join_pairs:
            out["join_pairs"] = [pair.as_dict() for pair in self.join_pairs]
        if self.total_paths is not None:
            out["total_paths"] = self.total_paths
        return out


# ---------------------------------------------------------------------------
# The EXPLAIN / ANALYZE driver
# ---------------------------------------------------------------------------


@dataclass
class ExplainReport:
    """The rendered result of one :func:`explain_query` run."""

    s: Any
    t: Any
    k: int
    analyze: bool
    num_vertices: int
    num_edges: int
    record: ExplainRecord
    estimates: List[Dict[str, Any]] = field(default_factory=list)
    construction_seconds: float = 0.0
    enumeration_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """The JSON shape (`repro explain --format json`, wire op)."""
        out: Dict[str, Any] = {
            "schema": "repro-explain/1",
            "query": {"s": self.s, "t": self.t, "k": self.k},
            "analyze": self.analyze,
            "graph": {
                "num_vertices": self.num_vertices,
                "num_edges": self.num_edges,
            },
            "timings": {
                "construction_seconds": self.construction_seconds,
                "enumeration_seconds": self.enumeration_seconds,
            },
            "estimates": list(self.estimates),
        }
        out.update(self.record.as_dict())
        return out

    def render_text(self) -> str:
        """A human-readable EXPLAIN table (``--format text``)."""
        rec = self.record
        l, r = rec.split
        mode = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        lines = [
            f"{mode} q(s={self.s!r}, t={self.t!r}, k={self.k}) "
            f"on {self.num_vertices} vertices / {self.num_edges} edges",
            f"cut: l={l} r={r}  plan "
            + " ".join(f"({i},{j})" for i, j in rec.plan_pairs),
        ]
        if rec.cut_steps:
            lines.append("dynamic cut decisions (Opt. 2):")
            for step in rec.cut_steps:
                mark = " [forced]" if step.forced else ""
                lines.append(
                    f"  step {step.step}: grow {step.side:<5} "
                    f"(left frontier {step.left_frontier}, "
                    f"right frontier {step.right_frontier}){mark}"
                )
        if rec.levels:
            lines.append("level search (Opt. 1 distance pruning):")
            lines.append("  side   level  expansions  admitted  pruned")
            for lv in rec.levels:
                lines.append(
                    f"  {lv.side:<5}  {lv.level:>5}  {lv.expansions:>10}  "
                    f"{lv.admitted:>8}  {lv.pruned:>6}"
                )
        lines.append("index buckets:")
        for length in sorted(rec.left_buckets):
            lines.append(f"  LP_{length}: {rec.left_buckets[length]} paths")
        for length in sorted(rec.right_buckets):
            lines.append(f"  RP_{length}: {rec.right_buckets[length]} paths")
        lines.append(f"  direct edge: {'yes' if rec.direct_edge else 'no'}")
        if self.estimates:
            lines.append("join pairs:")
            header = "  (i,j)  cut_vertices  est_output"
            measured = {(p.i, p.j): p for p in rec.join_pairs}
            if measured:
                header += "  probes  emitted"
            lines.append(header)
            for est in self.estimates:
                i, j = est["i"], est["j"]
                row = (
                    f"  ({i},{j})  {est['cut_vertices']:>12}  "
                    f"{est['est_output']:>10}"
                )
                pair = measured.get((i, j))
                if pair is not None:
                    row += f"  {pair.probes:>6}  {pair.emitted:>7}"
                lines.append(row)
        if rec.total_paths is not None:
            # The total is the join's emits plus the direct edge.
            lines.append(f"total paths: {rec.total_paths}")
        lines.append(
            f"timings: construction {self.construction_seconds * 1e3:.3f} ms"
            + (
                f", enumeration {self.enumeration_seconds * 1e3:.3f} ms"
                if self.analyze
                else ""
            )
        )
        return "\n".join(lines)

    def annotate_trace(self, buffer: TraceBuffer) -> None:
        """Drop instant markers for the decisions into ``buffer``."""
        for step in self.record.cut_steps:
            buffer.instant("explain.cut", step.ts, step.as_dict())
        for level in self.record.levels:
            buffer.instant("explain.level", level.ts, level.as_dict())
        for pair in self.record.join_pairs:
            buffer.instant("explain.join", pair.ts, pair.as_dict())

    def to_chrome_trace(self, buffer: TraceBuffer) -> Dict[str, Any]:
        """``buffer`` (spans collected during the run) plus this report's
        instant markers and metadata, as Chrome trace JSON."""
        self.annotate_trace(buffer)
        return buffer.to_chrome_trace(metadata={"explain": self.to_dict()})


def explain_query(
    graph: "DynamicDiGraph",
    s: "Vertex",
    t: "Vertex",
    k: int,
    analyze: bool = False,
) -> ExplainReport:
    """EXPLAIN (estimate) or ANALYZE (run and measure) one query.

    Always builds the index (the index *is* the plan — construction is
    the cheap part by design); with ``analyze=True`` additionally runs
    the full join so the report carries actual per-pair probe/emit
    cardinalities and the path total.
    """
    from repro.core.construction import build_index

    return explain_build(graph, build_index(graph, s, t, k), analyze)


def explain_build(
    graph: "DynamicDiGraph", result: "BuildResult", analyze: bool = False
) -> ExplainReport:
    """The report of one finished :func:`build_index` over ``graph``.

    Cut decisions and levels are the build's ``ConstructionStats``
    rows; plan, bucket sizes and direct edge are the index's.
    Estimates come from the join program; plan pairs with no program
    step (one of their levels is empty) get zeros.  ANALYZE runs
    :func:`~repro.core.enumeration.count_by_pair`, the counting form of
    the production join.
    """
    from repro import obs
    from repro.core.enumeration import count_by_pair

    # Construction's rows, stamped with the end of construction.
    built = time.perf_counter()
    stats, index = result.stats, result.index
    record = ExplainRecord(
        cut_steps=[
            CutStep(step, side, left, right, stats.forced, built)
            for step, side, left, right in stats.cuts
        ],
        levels=[
            LevelStats(side, level, expansions, admitted, built)
            for side, level, expansions, admitted in stats.levels
        ],
        plan_pairs=index.plan.pairs,
        left_buckets={
            n: index.left.count_at_length(n) for n in index.left.lengths()
        },
        right_buckets={
            n: index.right.count_at_length(n) for n in index.right.lengths()
        },
        direct_edge=index.direct_edge,
    )
    steps = {
        (step.i, step.j): (step.cut_vertices, step.probe_total)
        for step in index.packed_program()
    }
    shape = [(i, j) + steps.get((i, j), (0, 0)) for i, j in index.plan]
    enumeration_seconds = 0.0
    if analyze:
        started = time.perf_counter()
        # obs.span is gated; the CLI enables obs for --format trace so
        # the enumeration shows up as an interval on the timeline.
        with obs.span("enumeration.full"):
            counts = count_by_pair(index)
        finished = time.perf_counter()
        enumeration_seconds = finished - started
        record.join_pairs = [
            JoinPairStats(i, j, cut, probes, counts.get((i, j), 0), finished)
            for i, j, cut, probes in shape
        ]
        record.total_paths = int(index.direct_edge) + sum(counts.values())
    return ExplainReport(
        s=index.s,
        t=index.t,
        k=index.k,
        analyze=analyze,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        record=record,
        estimates=[
            {"i": i, "j": j, "cut_vertices": cut, "est_output": probes}
            for i, j, cut, probes in shape
        ],
        construction_seconds=stats.prep_seconds + stats.build_seconds,
        enumeration_seconds=enumeration_seconds,
    )


__all__ = [
    "CutStep",
    "LevelStats",
    "JoinPairStats",
    "ExplainRecord",
    "ExplainReport",
    "explain_build",
    "explain_query",
]
