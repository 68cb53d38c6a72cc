"""Partition-key analysis: can a plan be sharded by key?

The sharded runtime (:mod:`repro.runtime`) executes N independent
copies of a dataflow and routes every source row to exactly one of them
by hashing a *partition key*.  That reproduces the serial result if and
only if rows that ever interact inside a stateful operator always land
on the same shard — the classic keyed-partitioning argument of
distributed streaming SQL engines (Flink, Samza; see *Fast Data
Management with Distributed Streaming SQL*).

This module decides, from the optimized logical plan alone, whether
such a key exists and how each source routes by it:

* every GROUP BY must contain the key (rows of one group co-locate);
* every join must carry the key through an equi-join column pair
  (matching rows co-locate);
* operators whose *output order* is driven by watermark advances or
  processing-time timers (OVER, MATCH_RECOGNIZE, session windows,
  temporal joins, time-progressing filters) force a serial fallback:
  their watermark-triggered emissions interleave shard-locally, which
  cannot reproduce the serial arrival-order interleaving.

The analysis walks the tree bottom-up propagating *candidates*: sets of
output columns whose values are traceable, verbatim, to one column of
every source underneath (plus optionally a tumbling-window alignment of
it, so ``GROUP BY wend`` partitions by window).  A candidate that
survives to the root is a legal partitioning; the decision records the
winning candidate or the reason none exists.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional

from ..core.times import Duration, align_to_window, fmt_duration
from .logical import (
    AggregateNode,
    FilterNode,
    JoinKind,
    JoinNode,
    LogicalNode,
    OverNode,
    ProjectNode,
    ScanNode,
    SemiJoinNode,
    SetOpNode,
    SortNode,
    TemporalFilterNode,
    TemporalJoinNode,
    UnionNode,
    ValuesNode,
    WindowKind,
    WindowNode,
)
from .planner import QueryPlan
from .rex import RexInput

__all__ = ["Route", "PartitionSpec", "PartitionDecision", "analyze_partitioning"]


@dataclass(frozen=True)
class Route:
    """How one source routes its rows to shards.

    ``column`` is the source column whose value is hashed.  ``window``
    optionally aligns the value to a tumbling-window edge first —
    ``("end", size, offset)`` or ``("start", size, offset)`` — so that
    queries keyed only by ``wend``/``wstart`` can still shard: every row
    of one window routes to the same shard.
    """

    column: int
    window: Optional[tuple[str, Duration, Duration]] = None

    def key_of(self, values: tuple) -> object:
        value = values[self.column]
        if self.window is None or value is None:
            return value
        edge, size, offset = self.window
        start = align_to_window(value, size, offset)
        return start + size if edge == "end" else start

    def describe(self, source: str, column_name: str) -> str:
        if self.window is None:
            return f"{source}.{column_name}"
        edge, size, _ = self.window
        return f"tumble_{edge}({source}.{column_name}, {fmt_duration(size)})"


@dataclass
class PartitionSpec:
    """A complete routing decision: one :class:`Route` per source."""

    #: lower-cased source name -> route: a row belongs to shard
    #: ``stable_hash(route.key_of(values)) % shards``.  Sources the query
    #: never reads have no route; their row events are no-ops in every
    #: shard, so the router broadcasts them, which preserves the serial
    #: executor's bookkeeping (``last_ptime``) without duplicating any
    #: output (:func:`repro.runtime.routing.partition_events`).
    routes: dict[str, Route]
    description: str


@dataclass(frozen=True)
class PartitionDecision:
    """The analyzer's verdict: a spec, or the reason to stay serial."""

    spec: Optional[PartitionSpec]
    reason: str

    @property
    def partitionable(self) -> bool:
        return self.spec is not None


def stable_hash(value: object) -> int:
    """A process-stable hash for routing (Python's ``hash`` is salted)."""
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))


# ---------------------------------------------------------------------------
# the bottom-up candidate walk
# ---------------------------------------------------------------------------


class _Fallback(Exception):
    """Raised where the plan shape rules out key-partitioning."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class _Cand:
    """One partitioning candidate at some node.

    ``out_cols`` — output ordinals of the node that carry the key value
    (empty once a projection drops it: still a legal partitioning, but
    no stateful operator above can be keyed by it any more).
    ``routes`` — (leaf index, Route) for every scan leaf underneath.
    """

    out_cols: frozenset[int]
    routes: tuple[tuple[int, Route], ...]

    def shifted(self, delta: int) -> "_Cand":
        return _Cand(frozenset(c + delta for c in self.out_cols), self.routes)


@dataclass
class _Leaves:
    """Scan leaves in compile order: (source name, column names)."""

    entries: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)


_MAX_CANDIDATES = 64


def _cap(cands: list[_Cand]) -> list[_Cand]:
    return cands[:_MAX_CANDIDATES]


def _analyze(node: LogicalNode, leaves: _Leaves) -> list[_Cand]:
    if isinstance(node, ScanNode):
        idx = len(leaves.entries)
        leaves.entries.append(
            (node.name.lower(), tuple(c.name for c in node.schema.columns))
        )
        return [
            _Cand(frozenset([i]), ((idx, Route(i)),))
            for i in range(len(node.schema))
        ]
    if isinstance(node, ValuesNode):
        raise _Fallback("inline VALUES rows are a broadcast prelude, not routable")
    if isinstance(node, TemporalFilterNode):
        raise _Fallback(
            "time-progressing filters emit on processing-time timers"
        )
    if isinstance(node, OverNode):
        raise _Fallback(
            "OVER windows emit rows on watermark advances in arrival order"
        )
    if isinstance(node, TemporalJoinNode):
        raise _Fallback("temporal joins emit enriched rows on watermark advances")
    if isinstance(node, SortNode):
        raise _Fallback("ORDER BY / LIMIT ranks the whole result globally")
    if isinstance(node, FilterNode):
        return _analyze(node.input, leaves)
    if isinstance(node, ProjectNode):
        cands = _analyze(node.input, leaves)
        forwarded: dict[int, list[int]] = {}
        for out_idx, expr in enumerate(node.exprs):
            if isinstance(expr, RexInput):
                forwarded.setdefault(expr.index, []).append(out_idx)
        out = []
        for cand in cands:
            mapped = frozenset(
                o for c in cand.out_cols for o in forwarded.get(c, ())
            )
            out.append(_Cand(mapped, cand.routes))
        return out
    if isinstance(node, WindowNode):
        if node.kind is WindowKind.SESSION:
            raise _Fallback("session windows close on watermark advances")
        cands = _analyze(node.input, leaves)
        out = [cand.shifted(2) for cand in cands]
        if node.kind is WindowKind.TUMBLE:
            # wstart/wend are deterministic alignments of the time
            # column, so a window edge is itself routable: the router
            # recomputes the same alignment per row.
            offset = node.offset or 0
            for cand in cands:
                if node.timecol not in cand.out_cols:
                    continue
                if any(route.window is not None for _, route in cand.routes):
                    continue  # don't stack window alignments
                for ordinal, edge in ((WindowNode.WEND, "end"),
                                      (WindowNode.WSTART, "start")):
                    routes = tuple(
                        (leaf, Route(route.column, (edge, node.size, offset)))
                        for leaf, route in cand.routes
                    )
                    out.append(_Cand(frozenset([ordinal]), routes))
        return _cap(out)
    if isinstance(node, AggregateNode):
        if not node.group_indices:
            raise _Fallback("a global aggregate keeps one group for all rows")
        cands = _analyze(node.input, leaves)
        group = set(node.group_indices)
        out = []
        for cand in cands:
            if not (cand.out_cols & group):
                continue
            mapped = frozenset(
                pos
                for pos, in_idx in enumerate(node.group_indices)
                if in_idx in cand.out_cols
            )
            out.append(_Cand(mapped, cand.routes))
        if not out:
            raise _Fallback(
                "no GROUP BY key is traceable to a single column of every source"
            )
        return out
    if isinstance(node, JoinNode):
        if node.kind is JoinKind.CROSS or node.condition is None:
            raise _Fallback("a cross join pairs rows regardless of any key")
        if not node.hash_left:
            raise _Fallback("the join condition has no equi-key to partition on")
        left_cands = _analyze(node.left, leaves)
        right_cands = _analyze(node.right, leaves)
        left_width = len(node.left.schema)
        out = []
        seen = set()
        for lcol, rcol in zip(node.hash_left, node.hash_right):
            for lc in left_cands:
                if lcol not in lc.out_cols:
                    continue
                for rc in right_cands:
                    if rcol not in rc.out_cols:
                        continue
                    # A null-extended output row carries NULLs on the
                    # padded side, so only non-padded columns still
                    # carry the key value upward.
                    out_cols = set()
                    if node.kind is not JoinKind.FULL:
                        out_cols |= lc.out_cols
                    if node.kind is JoinKind.INNER:
                        out_cols |= {c + left_width for c in rc.out_cols}
                    cand = _Cand(frozenset(out_cols), lc.routes + rc.routes)
                    if cand not in seen:
                        seen.add(cand)
                        out.append(cand)
        if not out:
            raise _Fallback(
                "no equi-join key is traceable to a single column of every source"
            )
        return _cap(out)
    if isinstance(node, SemiJoinNode):
        if not isinstance(node.left_expr, RexInput):
            raise _Fallback("the IN probe is a computed expression, not a column")
        left_cands = _analyze(node.left, leaves)
        right_cands = _analyze(node.right, leaves)
        probe = node.left_expr.index
        out = []
        for lc in left_cands:
            if probe not in lc.out_cols:
                continue
            for rc in right_cands:
                if 0 not in rc.out_cols:
                    continue
                out.append(_Cand(lc.out_cols, lc.routes + rc.routes))
        if not out:
            raise _Fallback(
                "the IN membership key is not traceable to a single source column"
            )
        return _cap(out)
    if isinstance(node, (UnionNode, SetOpNode)):
        # Rows interact positionally (set ops by full-row equality,
        # unions feed shared state above), so a candidate must surface
        # at the same output ordinals in every branch.
        branch_cands = [_analyze(child, leaves) for child in node.inputs]
        merged = branch_cands[0]
        for other in branch_cands[1:]:
            combined = []
            for a in merged:
                for b in other:
                    common = a.out_cols & b.out_cols
                    if common:
                        combined.append(_Cand(common, a.routes + b.routes))
            merged = _cap(combined)
        if not merged:
            kind = "UNION" if isinstance(node, UnionNode) else node.op
            raise _Fallback(
                f"no column is forwarded by every {kind} branch to the same position"
            )
        return merged
    # (last, so only a plan that has one loads MATCH_RECOGNIZE planning)
    from .match import MatchRecognizeNode

    if isinstance(node, MatchRecognizeNode):
        raise _Fallback(
            "MATCH_RECOGNIZE emits matches on watermark advances in arrival order"
        )
    raise _Fallback(f"{type(node).__name__} is not key-partitionable")


def analyze_partitioning(plan: QueryPlan) -> PartitionDecision:
    """Decide whether ``plan`` can run sharded, and how to route."""
    leaves = _Leaves()
    try:
        cands = _analyze(plan.root, leaves)
    except _Fallback as fallback:
        return PartitionDecision(spec=None, reason=fallback.reason)

    names = leaves.entries
    viable: list[tuple[tuple, dict[str, Route]]] = []
    for cand in cands:
        per_source: dict[str, Route] = {}
        ok = len(cand.routes) == len(names)
        for leaf_idx, route in cand.routes:
            source = names[leaf_idx][0]
            if per_source.setdefault(source, route) != route:
                ok = False
                break
        if ok:
            # Rank: plain column routes before window-aligned ones,
            # then a stable textual order for determinism.
            rank = (
                sum(1 for r in per_source.values() if r.window is not None),
                tuple(sorted(
                    (src, r.column, r.window or ()) for src, r in per_source.items()
                )),
            )
            viable.append((rank, per_source))
    if not viable:
        return PartitionDecision(
            spec=None,
            reason="the same source is scanned with incompatible partition keys",
        )
    viable.sort(key=lambda item: item[0])
    routes = viable[0][1]
    col_names = {src: cols for src, cols in names}
    description = ", ".join(
        route.describe(src, col_names[src][route.column])
        for src, route in sorted(routes.items())
    )
    return PartitionDecision(
        spec=PartitionSpec(routes=routes, description=description),
        reason=f"keyed by {description}",
    )
