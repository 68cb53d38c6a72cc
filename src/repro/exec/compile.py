"""Translate logical plan nodes into physical operators, one at a time:
``Dataflow`` builds and wires its operators node by node through
:func:`build_operator`, so resident subplans can be shared.  An operator
few flows need is imported in the branch that builds it."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..core.errors import PlanError
from ..plan import rex
from ..plan.optimizer import join_residual
from ..plan.physical import CombineAggregateNode
from ..plan.pipeline import PipelineNode
from ..plan.logical import (
    AggregateNode,
    TemporalFilterNode,
    TemporalJoinNode,
    JoinKind,
    JoinNode,
    LogicalNode,
    OverNode,
    PartialAggregateNode,
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
from .operators.stateless import ScanOperator, SortOperator, UnionOperator
from .operators.pipeline import PipelineOperator
from .operators.window import HopOperator

__all__ = [
    "COALESCE_KEEPS_INSTANTS", "SHARDS_KEEP_INSTANTS",
    "TIMERS_KEEP_INSTANTS", "build_operator", "why_runs_split",
    "why_runs_stay_per_instant",
]

#: Why a flow's runs stay within one processing-time instant
#: (``Dataflow.run_span_reason``).
TIMERS_KEEP_INSTANTS = "a processing-time timer could come due inside a run"
COALESCE_KEEPS_INSTANTS = "coalesce_updates compacts per instant"
SHARDS_KEEP_INSTANTS = "a partial payload carries one processing time"


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
    from the plan alone (``Dataflow.run_split_reason``).
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


def why_runs_stay_per_instant(
    operators: Iterable[Operator], coalesce: bool
) -> Optional[str]:
    """Why a serial flow running ``operators`` must be fed its runs one
    processing-time instant at a time — or ``None``: a run of one
    source's rows may span instants up to the next watermark.

    Every operator emits each change at its input row's ``ptime`` and
    the input watermark cannot move inside a run, so a spanning run
    changes nothing but the number of deliveries — unless a timer could
    come due between two of its instants (an operator class that
    overrides ``on_timer``) or the flow compacts per instant
    (``coalesce``).
    """
    if any(type(op).on_timer is not Operator.on_timer for op in operators):
        return TIMERS_KEEP_INSTANTS
    if coalesce:
        return COALESCE_KEEPS_INSTANTS
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
    if isinstance(node, PipelineNode):
        # A fused Filter/Project/Tumble chain (every flow compiles its
        # plan fused); the operator runs the chain in one generated loop.
        return PipelineOperator(
            node.schema, len(node.input.schema), node.steps
        )
    if isinstance(node, TemporalFilterNode):
        from .operators.temporal import TemporalFilterOperator

        return TemporalFilterOperator(node.schema, node.bounds)
    # (a TUMBLE window, like a Filter or Project, only ever reaches the
    # compiler fused into a PipelineNode)
    if isinstance(node, WindowNode) and node.kind is not WindowKind.TUMBLE:
        if node.kind is WindowKind.HOP:
            assert node.slide is not None
            return HopOperator(
                node.schema, node.timecol, node.size, node.slide, node.offset
            )
        from .operators.session import SessionOperator

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
        from .operators.over import OverOperator

        return OverOperator(
            node.schema,
            node.partition_indices,
            node.order_index,
            node.calls,
            node.frame_rows,
        )
    if isinstance(node, TemporalJoinNode):
        from .operators.temporal_join import TemporalJoinOperator

        return TemporalJoinOperator(
            node.schema,
            node.left_time_index,
            node.right_time_index,
            node.left_keys,
            node.right_keys,
        )
    if isinstance(node, JoinNode):
        outer = node.kind in (JoinKind.LEFT, JoinKind.FULL)
        # An inner join evaluates only what its hash keys do not decide.
        condition = node.condition if outer else join_residual(node)
        if condition is not None:
            condition = rex.compile_rex(condition)
        if outer:
            from .operators.outer_join import OuterJoinOperator

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
        from .operators.join import JoinOperator, TimeBound

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
        from .operators.semi_join import SemiJoinOperator

        return SemiJoinOperator(
            node.schema,
            probe=rex.compile_rex(node.left_expr),
            negated=node.negated,
        )
    if isinstance(node, SetOpNode):
        from .operators.setop import SetOpOperator

        return SetOpOperator(node.schema, node.op, node.all)
    if isinstance(node, UnionNode):
        return UnionOperator(node.schema, arity=len(node.inputs))
    if isinstance(node, SortNode):
        return SortOperator(node.schema)
    # (last, so only a plan that has one loads MATCH_RECOGNIZE planning)
    from ..plan.match import MatchRecognizeNode

    if isinstance(node, MatchRecognizeNode):
        from .operators.match import MatchRecognizeOperator

        return MatchRecognizeOperator(
            node.schema,
            node.partition_indices,
            node.order_index,
            node.measures,
            node.pattern,
            node.defines,
            node.after_match,
        )
    raise PlanError(f"cannot compile {type(node).__name__}")
