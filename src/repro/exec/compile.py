"""Translate a logical plan into a physical operator tree."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..core.errors import PlanError
from ..plan import rex
from ..plan.match import MatchRecognizeNode
from ..plan.pipeline import PipelineNode
from ..plan.logical import (
    AggregateNode,
    FilterNode,
    TemporalFilterNode,
    TemporalJoinNode,
    JoinKind,
    JoinNode,
    LogicalNode,
    OverNode,
    PartialAggregateNode,
    ProjectNode,
    ScanNode,
    SemiJoinNode,
    SetOpNode,
    SortNode,
    UnionNode,
    ValuesNode,
    WindowKind,
    WindowNode,
)
from .operators.aggregate import AggregateOperator, PartialAggregateOperator
from .operators.base import Operator
from .operators.join import JoinOperator, TimeBound
from .operators.outer_join import OuterJoinOperator
from .operators.semi_join import SemiJoinOperator
from .operators.session import SessionOperator
from .operators.setop import SetOpOperator
from .operators.stateless import (
    FilterOperator,
    ProjectOperator,
    ScanOperator,
    SortOperator,
    UnionOperator,
)
from .operators.match import MatchRecognizeOperator
from .operators.over import OverOperator
from .operators.pipeline import PipelineOperator
from .operators.temporal import TemporalFilterOperator
from .operators.temporal_join import TemporalJoinOperator
from .operators.window import HopOperator, TumbleOperator

__all__ = ["CompiledPlan", "LINEAGE_SPLITS_RUNS", "build_operator",
           "compile_plan", "why_runs_split"]

#: The one reason a plan that *can* carry sequence numbers is split at
#: gaps anyway (``ShardedDataflow.run_split_reason``, ``EXPLAIN``).
LINEAGE_SPLITS_RUNS = "a lineage recorder claims per-event ordinals"


@dataclass
class CompiledPlan:
    """A plan's physical operator tree, stand-alone.

    The executor does not go through this — ``Dataflow`` builds and
    wires operators node by node (``attach_output``) so resident
    subplans can be shared; this is the whole-tree view for callers
    that only inspect the operators (``EXPLAIN``).
    """

    root: Operator
    #: every operator, children before parents (post-order)
    operators: list[Operator]
    #: (logical node, operator) pairs in post-order
    node_ops: list[tuple[LogicalNode, Operator]] = field(default_factory=list)


def compile_plan(root: LogicalNode, allowed_lateness: int = 0) -> CompiledPlan:
    """Compile the logical tree rooted at ``root``.

    ``allowed_lateness`` extends every watermark-driven decision (late
    dropping, state retention, join-state expiry) by the given slack —
    the configurable lateness Extension 2 alludes to.
    """
    compiled = CompiledPlan(root=None, operators=[])  # type: ignore[arg-type]
    compiled.root = _compile(root, compiled, allowed_lateness)
    return compiled


def why_runs_split(
    columnar: bool, outputs: Iterable[Sequence[Operator]]
) -> Optional[str]:
    """Why a shard running these operators must be fed its share of a
    run piece by gap-free piece — or ``None``: the share's per-row
    sequence numbers reach every root, so it can be fed whole.

    ``outputs`` lists, per output, the operators below its root and the
    root (inputs first, the root last).  The numbers ride only columnar
    batches, through operators that carry them, to a root that ships
    them; the first place they would be lost is the reason.  Decided
    from the plan alone — ``Dataflow.run_split_reason`` for a flow,
    ``EXPLAIN (physical)`` for a query; a sharded flow with a lineage
    recorder splits whatever the plan (:data:`LINEAGE_SPLITS_RUNS`).
    """
    if not columnar:
        return "row batches carry no sequence numbers"
    for operators in outputs:
        *below, root = operators
        lost = next((op for op in below if not op.carries_seqs), None)
        if lost is None and not root.ships_seqs:
            lost = root
        if lost is not None:
            kind = type(lost).__name__.removesuffix("Operator")
            return f"{kind} cannot carry sequence numbers"
    return None


def _compile(node: LogicalNode, out: CompiledPlan, lateness: int) -> Operator:
    children = [_compile(child, out, lateness) for child in node.inputs]
    op = build_operator(node, children, lateness)
    out.operators.append(op)
    out.node_ops.append((node, op))
    return op


def build_operator(
    node: LogicalNode, children: list[Operator], lateness: int
) -> Operator:
    """Build the physical operator for one logical node (children given)."""
    if isinstance(node, ScanNode):
        return ScanOperator(node.schema, node.name)
    if isinstance(node, ValuesNode):
        # Values relations are fed by the executor like a tiny bounded
        # source; the scan operator is just the entry point.
        return ScanOperator(node.schema, f"$values{id(node)}")
    if isinstance(node, FilterNode):
        (child,) = children
        return FilterOperator(node.schema, rex.compile_rex(node.condition))
    if isinstance(node, PipelineNode):
        # Fused Filter/Project chain (columnar mode); the operator runs
        # the whole chain in one generated loop.
        return PipelineOperator(
            node.schema, len(node.input.schema), node.steps
        )
    if isinstance(node, TemporalFilterNode):
        return TemporalFilterOperator(node.schema, node.bounds)
    if isinstance(node, ProjectNode):
        return ProjectOperator(node.schema, [rex.compile_rex(e) for e in node.exprs])
    if isinstance(node, WindowNode):
        if node.kind is WindowKind.TUMBLE:
            return TumbleOperator(node.schema, node.timecol, node.size, node.offset)
        if node.kind is WindowKind.HOP:
            assert node.slide is not None
            return HopOperator(
                node.schema, node.timecol, node.size, node.slide, node.offset
            )
        return SessionOperator(
            node.schema,
            node.timecol,
            node.size,
            node.key_indices,
            allowed_lateness=lateness,
        )
    if isinstance(node, PartialAggregateNode):
        # Checked before AggregateNode only by convention; the classes
        # are unrelated.  ``delta_mode`` is stamped on the node by the
        # sharded runtime (it tracks the flow's coalesce_updates flag).
        return PartialAggregateOperator(
            node.schema,
            node.group_indices,
            node.aggs,
            node.event_time_key_positions,
            node.input.bounded,
            allowed_lateness=lateness,
            delta_mode=getattr(node, "delta_mode", False),
        )
    if isinstance(node, AggregateNode):
        return AggregateOperator(
            node.schema,
            node.group_indices,
            node.aggs,
            node.event_time_key_positions,
            node.input.bounded,
            allowed_lateness=lateness,
        )
    if isinstance(node, OverNode):
        return OverOperator(
            node.schema,
            node.partition_indices,
            node.order_index,
            node.calls,
            node.frame_rows,
        )
    if isinstance(node, MatchRecognizeNode):
        return MatchRecognizeOperator(
            node.schema,
            node.partition_indices,
            node.order_index,
            node.measures,
            node.pattern,
            node.defines,
            node.after_match,
        )
    if isinstance(node, TemporalJoinNode):
        return TemporalJoinOperator(
            node.schema,
            node.left_time_index,
            node.right_time_index,
            node.left_keys,
            node.right_keys,
        )
    if isinstance(node, JoinNode):
        condition = (
            rex.compile_rex(node.condition) if node.condition is not None else None
        )
        if node.kind in (JoinKind.LEFT, JoinKind.FULL):
            return OuterJoinOperator(
                node.schema,
                left_width=len(node.left.schema),
                right_width=len(node.right.schema),
                condition=condition,
                left_key=node.hash_left or None,
                right_key=node.hash_right or None,
                outer=(True, node.kind is JoinKind.FULL),
            )
        if node.kind not in (JoinKind.INNER, JoinKind.CROSS):
            raise PlanError(f"{node.kind.value} JOIN execution is not supported yet")
        left_bound = (
            TimeBound(node.expire_left[0], node.expire_left[1] + lateness)
            if node.expire_left is not None
            else None
        )
        right_bound = (
            TimeBound(node.expire_right[0], node.expire_right[1] + lateness)
            if node.expire_right is not None
            else None
        )
        return JoinOperator(
            node.schema,
            left_width=len(node.left.schema),
            condition=condition,
            left_key=node.hash_left or None,
            right_key=node.hash_right or None,
            left_bound=left_bound,
            right_bound=right_bound,
        )
    if isinstance(node, SemiJoinNode):
        return SemiJoinOperator(
            node.schema,
            probe=rex.compile_rex(node.left_expr),
            negated=node.negated,
        )
    if isinstance(node, SetOpNode):
        return SetOpOperator(node.schema, node.op, node.all)
    if isinstance(node, UnionNode):
        return UnionOperator(node.schema, arity=len(node.inputs))
    if isinstance(node, SortNode):
        return SortOperator(node.schema)
    raise PlanError(f"cannot compile {type(node).__name__}")
