"""Translate logical plan nodes into physical operators, one at a time:
``Dataflow`` builds and wires its operators node by node through
:func:`build_operator`, so resident subplans can be shared."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..core.errors import PlanError
from ..plan import rex
from ..plan.match import MatchRecognizeNode
from ..plan.physical import CombineAggregateNode
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
from .operators.aggregate import (
    AggregateOperator,
    CombineAggregateOperator,
    PartialAggregateOperator,
)
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

__all__ = ["LINEAGE_SPLITS_RUNS", "build_operator", "why_runs_split"]

#: The one reason a plan that *can* carry sequence numbers is split at
#: gaps anyway (``ShardedDataflow.run_split_reason``).
LINEAGE_SPLITS_RUNS = "a lineage recorder claims per-event ordinals"


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
    from the plan alone (``Dataflow.run_split_reason``); a sharded flow
    with a lineage recorder splits whatever the plan
    (:data:`LINEAGE_SPLITS_RUNS`).
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
        # Fused Filter/Project/Tumble chain (columnar mode); the
        # operator runs the whole chain in one generated loop.
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
        # (a merge plan's leaf is the split aggregate, fed partial
        # payloads; ``select`` is a Project above it the fusion pass
        # absorbed)
        combine = isinstance(node, CombineAggregateNode)
        return (CombineAggregateOperator if combine else AggregateOperator)(
            node.schema,
            node.group_indices,
            node.aggs,
            node.event_time_key_positions,
            node.input.bounded,
            allowed_lateness=lateness,
            select=node.select,
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
