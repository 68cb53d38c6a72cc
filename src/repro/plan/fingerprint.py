"""Canonical plan fingerprints — the unit of multi-query sharing.

Following the Calcite lesson the paper builds on, two standing queries
share work when their *logical plans* coincide, not when their SQL text
does.  :func:`node_fingerprints` assigns every subtree a structural
hash over (operator kind, normalized rex expressions, window/aggregate
spec, source identity, child fingerprints).  The hash deliberately
excludes output *column names* — ``SELECT price AS p`` and ``SELECT
price AS cost`` fingerprint identically — and deliberately includes
output *types*, source names, and every semantic knob (window size,
DISTINCT flags, join expiry hints).

What is **not** in a node fingerprint:

* column aliases (``ProjectNode.names``, ``AggCall.output.name``);
* the tenant submitting the query (sharing is cross-tenant by design:
  admission has already gated table access);
* ``allowed_lateness`` and the EMIT clause — those are *plan-level*
  execution knobs, enforced by the sharing cache's config key and by
  :func:`plan_fingerprint` respectively.

``MATCH_RECOGNIZE`` nodes carry compiled ``DEFINE``/``MEASURES``
closures whose predicates cannot be canonicalized from the plan alone,
so they fingerprint as unshareable (unique per instance): a false
non-merge costs only speed, a false merge would corrupt results.
"""

from __future__ import annotations

import hashlib

from ..core.schema import Schema
from .logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LogicalNode,
    OverNode,
    PartialAggregateNode,
    ProjectNode,
    ScanNode,
    SemiJoinNode,
    SetOpNode,
    SortNode,
    TemporalFilterNode,
    TemporalJoinNode,
    UnionNode,
    ValuesNode,
    WindowNode,
)
from .match import MatchRecognizeNode
from .pipeline import PipelineNode
from .rex import Rex, RexCall, RexCase, RexCast, RexCurrentTime, RexInput, RexLiteral

__all__ = [
    "node_fingerprint",
    "node_fingerprints",
    "plan_fingerprint",
    "rex_token",
    "subtree_size",
]


def rex_token(expr: Rex) -> tuple:
    """A hashable canonical form of a rex expression.

    Positional (`RexInput` ordinals), so it is invariant under column
    renaming but sensitive to projection order — exactly the equality
    the executor needs.
    """
    if isinstance(expr, RexInput):
        return ("in", expr.index, expr.type.name)
    if isinstance(expr, RexLiteral):
        return ("lit", expr.type.name, type(expr.value).__name__, repr(expr.value))
    if isinstance(expr, RexCall):
        function = getattr(expr.function, "name", None) if expr.function else None
        return (
            "call",
            expr.op,
            function,
            expr.type.name,
            tuple(rex_token(arg) for arg in expr.args),
        )
    if isinstance(expr, RexCase):
        return (
            "case",
            expr.type.name,
            tuple(
                (rex_token(cond), rex_token(value)) for cond, value in expr.whens
            ),
            rex_token(expr.else_) if expr.else_ is not None else None,
        )
    if isinstance(expr, RexCast):
        return ("cast", expr.type.name, rex_token(expr.operand))
    if isinstance(expr, RexCurrentTime):
        return ("current_time", expr.type.name)
    # Unknown rex kinds must never falsely merge.
    return ("opaque", type(expr).__name__, id(expr))


def _schema_token(schema: Schema) -> tuple:
    """Types and event-time flags only — names are presentation."""
    return tuple((c.type.name, c.event_time) for c in schema.columns)


def _agg_token(call) -> tuple:
    # The output *name* is an alias; the output type is semantics.
    return (
        call.function.name,
        call.arg_index,
        call.distinct,
        call.output.type.name,
    )


def _step_token(step) -> tuple:
    kind, payload = step
    if kind == "filter":
        return ("filter", rex_token(payload))
    if kind == "project":
        return ("project", tuple(rex_token(e) for e in payload))
    return ("tumble", payload)  # (timecol, size, offset)


def _node_token(node: LogicalNode) -> tuple:
    """The per-node canonical parameters, children excluded."""
    if isinstance(node, ScanNode):
        return ("scan", node.name.lower(), node.bounded, _schema_token(node.schema))
    if isinstance(node, ValuesNode):
        # The executor names these scans "$values{id(node)}"; identity
        # here is the literal rows, never that generated name.
        return ("values", _schema_token(node.schema), node.rows)
    if isinstance(node, FilterNode):
        return ("filter", rex_token(node.condition))
    if isinstance(node, ProjectNode):
        return ("project", tuple(rex_token(e) for e in node.exprs))
    if isinstance(node, PipelineNode):
        # A fused chain fingerprints as its ordered steps, so two
        # pipelines share state exactly when their filter/project/tumble
        # chains are expression-identical.
        return ("pipeline", tuple(_step_token(step) for step in node.steps))
    if isinstance(node, TemporalFilterNode):
        return (
            "temporal_filter",
            tuple((b.time_index, b.offset, b.kind) for b in node.bounds),
        )
    if isinstance(node, WindowNode):
        return (
            "window",
            node.kind.value,
            node.timecol,
            node.size,
            node.slide,
            node.offset,
            node.key_indices,
        )
    if isinstance(node, AggregateNode):
        # ``select`` is what an absorbed Project above kept: two outputs
        # emitting different columns never share the operator.
        return (
            "aggregate",
            node.group_indices,
            tuple(_agg_token(call) for call in node.aggs),
            node.select,
        )
    if isinstance(node, PartialAggregateNode):
        return (
            "partial_aggregate",
            node.group_indices,
            tuple(_agg_token(call) for call in node.aggs),
        )
    if isinstance(node, OverNode):
        return (
            "over",
            node.partition_indices,
            node.order_index,
            node.frame_rows,
            tuple(_agg_token(call) for call in node.calls),
        )
    if isinstance(node, MatchRecognizeNode):
        return ("match_recognize", "unshareable", id(node))
    if isinstance(node, TemporalJoinNode):
        return (
            "temporal_join",
            node.left_time_index,
            node.right_time_index,
            node.left_keys,
            node.right_keys,
        )
    if isinstance(node, JoinNode):
        return (
            "join",
            node.kind.value,
            rex_token(node.condition) if node.condition is not None else None,
            node.hash_left,
            node.hash_right,
            node.expire_left,
            node.expire_right,
        )
    if isinstance(node, SemiJoinNode):
        return ("semijoin", rex_token(node.left_expr), node.negated)
    if isinstance(node, UnionNode):
        return ("union", len(node.inputs))
    if isinstance(node, SetOpNode):
        return ("setop", node.op, node.all)
    if isinstance(node, SortNode):
        return ("sort", node.keys, node.limit)
    # Unknown node kinds are unshareable, like MATCH_RECOGNIZE.
    return (type(node).__name__, "unshareable", id(node))


def node_fingerprints(root: LogicalNode) -> dict[int, str]:
    """Fingerprint every subtree of ``root``, keyed by ``id(node)``."""
    fps: dict[int, str] = {}

    def visit(node: LogicalNode) -> str:
        token = (
            type(node).__name__,
            _node_token(node),
            tuple(visit(child) for child in node.inputs),
        )
        fp = hashlib.sha256(repr(token).encode()).hexdigest()
        fps[id(node)] = fp
        return fp

    visit(root)
    return fps


def node_fingerprint(node: LogicalNode) -> str:
    """The canonical fingerprint of one subtree."""
    return node_fingerprints(node)[id(node)]


def plan_fingerprint(plan) -> str:
    """Whole-plan identity: root fingerprint plus the EMIT clause.

    Two plans with equal root fingerprints but different EMIT clauses
    (``EMIT STREAM`` vs. table view) may still share every operator —
    EMIT shapes materialization, not the changelog — but callers that
    need *result* identity (e.g. root-level sharing) compare this.
    """
    token = ("plan", node_fingerprint(plan.root), str(plan.emit))
    return hashlib.sha256(repr(token).encode()).hexdigest()


def subtree_size(node: LogicalNode) -> int:
    """Number of logical nodes in the subtree (sharing-ratio unit)."""
    return 1 + sum(subtree_size(child) for child in node.inputs)
