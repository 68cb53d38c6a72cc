"""Logical plan operators.

A logical plan is a tree of :class:`LogicalNode`.  Beyond the usual
schema propagation, every node derives three pieces of streaming
metadata the paper's semantics hinge on:

* **boundedness** — whether the relation is known finite (all inputs
  asserted complete).  Extension 2's legality check ("every GROUP BY
  over an unbounded input needs an event-time key") reads this.
* **completion columns** — output ordinals whose values upper-bound
  when a row can still change.  A row is *complete* once the relation's
  watermark passes all of its completion column values; ``EMIT AFTER
  WATERMARK`` materializes exactly the complete rows.  ``None`` means
  completeness is unknowable (only a fully-consumed input is complete).
* **emit keys** — output ordinals identifying the *aggregate* a row
  belongs to (the window/group).  ``EMIT STREAM``'s ``ver`` counter and
  ``EMIT AFTER DELAY``'s per-aggregate timers are keyed on these.

Event-time alignment follows the conservative rule Flink uses
(Appendix B.2.3): a column stays watermark-aligned only when forwarded
verbatim; any computed expression degrades to a plain TIMESTAMP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.errors import PlanError
from ..core.schema import Column, Schema, SqlType
from ..core.times import Duration, fmt_duration
from ..sql.functions import AggregateFunction
from .rex import Rex, RexInput

__all__ = [
    "LogicalNode",
    "ScanNode",
    "FilterNode",
    "ProjectNode",
    "TemporalBound",
    "TemporalFilterNode",
    "WindowKind",
    "WindowNode",
    "AggCall",
    "AggregateNode",
    "PartialAggregateNode",
    "OverNode",
    "JoinKind",
    "JoinNode",
    "SemiJoinNode",
    "TemporalJoinNode",
    "UnionNode",
    "SetOpNode",
    "SortNode",
    "ValuesNode",
]

CompletionIndices = Optional[tuple[int, ...]]


class LogicalNode:
    """Base class; subclasses set the derived metadata in __init__."""

    inputs: tuple["LogicalNode", ...]
    schema: Schema
    bounded: bool
    completion_indices: CompletionIndices
    emit_key_indices: tuple[int, ...]

    # -- plumbing -------------------------------------------------------

    def with_inputs(self, inputs: Sequence["LogicalNode"]) -> "LogicalNode":
        """A copy of this node over different inputs (used by rewrite rules)."""
        raise NotImplementedError

    def _describe(self) -> str:
        """One-line description used by explain()."""
        raise NotImplementedError

    def explain(self, indent: int = 0, verbose: bool = False) -> str:
        """Human-readable plan tree.

        ``verbose`` appends the streaming metadata each node derives:
        boundedness, the watermark-aligned columns, and the completion
        columns that drive EMIT AFTER WATERMARK.
        """
        line = "  " * indent + self._describe()
        if verbose:
            notes = [("bounded" if self.bounded else "unbounded")]
            aligned = [
                c.name for c in self.schema.columns if c.event_time
            ]
            if aligned:
                notes.append(f"aligned={aligned}")
            if self.completion_indices is not None:
                names = [
                    self.schema.columns[i].name
                    for i in self.completion_indices
                ]
                notes.append(f"complete_when={names}<=wm")
            line += f"  [{', '.join(notes)}]"
        parts = [line]
        parts.extend(
            child.explain(indent + 1, verbose) for child in self.inputs
        )
        return "\n".join(parts)

    def __repr__(self) -> str:
        return self._describe()


def _map_through_projection(
    indices: CompletionIndices, exprs: Sequence[Rex]
) -> CompletionIndices:
    """Map input completion ordinals through a projection.

    Returns ``None`` if any completion column is not forwarded verbatim:
    dropping the column loses the information needed to ever prove a
    row complete.
    """
    if indices is None:
        return None
    forwarded: dict[int, int] = {}
    for out_idx, expr in enumerate(exprs):
        if isinstance(expr, RexInput) and expr.index not in forwarded:
            forwarded[expr.index] = out_idx
    mapped = []
    for idx in indices:
        if idx not in forwarded:
            return None
        mapped.append(forwarded[idx])
    return tuple(mapped)


def _map_keys_through_projection(
    indices: tuple[int, ...], exprs: Sequence[Rex]
) -> tuple[int, ...]:
    """Like :func:`_map_through_projection` but drops lost keys."""
    forwarded: dict[int, int] = {}
    for out_idx, expr in enumerate(exprs):
        if isinstance(expr, RexInput) and expr.index not in forwarded:
            forwarded[expr.index] = out_idx
    return tuple(forwarded[i] for i in indices if i in forwarded)


class ScanNode(LogicalNode):
    """Reads a registered stream or table."""

    def __init__(self, name: str, schema: Schema, bounded: bool):
        self.name = name
        self.inputs = ()
        self.schema = schema
        self.bounded = bounded
        et = tuple(i for i, c in enumerate(schema.columns) if c.event_time)
        self.completion_indices = et if et else None
        self.emit_key_indices = ()

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "ScanNode":
        assert not inputs
        return self

    def _describe(self) -> str:
        kind = "table" if self.bounded else "stream"
        return f"Scan({self.name} {kind})"


class FilterNode(LogicalNode):
    """Keeps rows whose predicate evaluates to TRUE."""

    def __init__(self, input: LogicalNode, condition: Rex):
        if condition.type not in (SqlType.BOOL, SqlType.NULL):
            raise PlanError(f"filter condition must be BOOLEAN, got {condition.type}")
        self.input = input
        self.condition = condition
        self.inputs = (input,)
        self.schema = input.schema
        self.bounded = input.bounded
        self.completion_indices = input.completion_indices
        self.emit_key_indices = input.emit_key_indices

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "FilterNode":
        (child,) = inputs
        return FilterNode(child, self.condition)

    def _describe(self) -> str:
        return f"Filter({self.condition})"


class ProjectNode(LogicalNode):
    """Computes one output column per expression."""

    def __init__(self, input: LogicalNode, exprs: Sequence[Rex], names: Sequence[str]):
        if len(exprs) != len(names):
            raise PlanError("projection exprs and names must align")
        self.input = input
        self.exprs = tuple(exprs)
        self.names = tuple(names)
        self.inputs = (input,)
        cols = []
        for expr, name in zip(self.exprs, self.names):
            aligned = (
                isinstance(expr, RexInput)
                and input.schema.columns[expr.index].event_time
            )
            cols.append(Column(name, expr.type, event_time=aligned))
        self.schema = Schema(cols)
        self.bounded = input.bounded
        self.completion_indices = _map_through_projection(
            input.completion_indices, self.exprs
        )
        self.emit_key_indices = _map_keys_through_projection(
            input.emit_key_indices, self.exprs
        )

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "ProjectNode":
        (child,) = inputs
        return ProjectNode(child, self.exprs, self.names)

    def _describe(self) -> str:
        cols = ", ".join(
            f"{expr} AS {name}" for expr, name in zip(self.exprs, self.names)
        )
        return f"Project({cols})"


@dataclass(frozen=True)
class TemporalBound:
    """One time-progressing predicate bound on a row.

    The row satisfies the predicate while ``CURRENT_TIME`` is inside the
    bound: ``kind='before'`` means visible while ``now < row[time_index]
    + offset`` (a tail-of-stream view, rows *leave* over time);
    ``kind='from'`` means visible once ``now >= row[time_index] +
    offset`` (rows *enter* over time).
    """

    time_index: int
    offset: Duration
    kind: str  # 'before' | 'from'


class TemporalFilterNode(LogicalNode):
    """A filter involving CURRENT_TIME (Section 8 time-progressing
    expressions).

    Unlike a plain filter, rows enter and leave the output purely by the
    passage of processing time, so the physical operator is stateful and
    timer-driven.  Because every row eventually leaves a tail-of-stream
    view, no row is ever *complete*; completion metadata is dropped.
    """

    def __init__(self, input: LogicalNode, bounds: Sequence[TemporalBound]):
        if not bounds:
            raise PlanError("temporal filter requires at least one bound")
        self.input = input
        self.bounds = tuple(bounds)
        self.inputs = (input,)
        self.schema = input.schema
        self.bounded = input.bounded
        self.completion_indices = None
        self.emit_key_indices = input.emit_key_indices

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "TemporalFilterNode":
        (child,) = inputs
        return TemporalFilterNode(child, self.bounds)

    def _describe(self) -> str:
        parts = []
        for bound in self.bounds:
            op = "now <" if bound.kind == "before" else "now >="
            parts.append(
                f"{op} ${bound.time_index} + {fmt_duration(bound.offset)}"
            )
        return f"TemporalFilter({' AND '.join(parts)})"


class WindowKind(enum.Enum):
    TUMBLE = "Tumble"
    HOP = "Hop"
    SESSION = "Session"


class WindowNode(LogicalNode):
    """A windowing TVF (Extension 3): Tumble, Hop, or Session.

    Output schema is ``wstart, wend`` followed by all input columns
    (Listing 5's column order).  Only ``wend`` is marked as a
    watermark-aligned event time column: the watermark contract says
    future *timestamps* exceed the watermark, and a future row's
    ``wend`` (= aligned timestamp + size) therefore does too — but its
    ``wstart`` may still fall at or before the watermark.  ``wstart``
    effectively carries a watermark shifted by the window size; our
    single-watermark-per-relation model handles that the way Flink does
    (Appendix B.2.3): conservatively degrade the column.  Grouping by
    ``wstart`` still works because the planner injects the sibling
    ``wend`` as an extra grouping key.
    """

    WSTART = 0
    WEND = 1

    def __init__(
        self,
        input: LogicalNode,
        kind: WindowKind,
        timecol: int,
        size: Duration,
        slide: Optional[Duration] = None,
        offset: Duration = 0,
        key_indices: tuple[int, ...] = (),
    ):
        source_col = input.schema.columns[timecol]
        if not source_col.event_time:
            raise PlanError(
                f"{kind.value} timecol must be a watermarked event time "
                f"column; {source_col.name!r} is not"
            )
        if size <= 0:
            raise PlanError(f"{kind.value} window size must be positive")
        if kind is WindowKind.HOP:
            if slide is None or slide <= 0:
                raise PlanError("Hop requires a positive slide")
        elif kind is WindowKind.SESSION:
            if key_indices is None:
                key_indices = ()
        else:
            slide = None
        self.input = input
        self.kind = kind
        self.timecol = timecol
        self.size = size
        self.slide = slide
        self.offset = offset
        self.key_indices = tuple(key_indices)
        self.inputs = (input,)
        window_cols = [
            Column("wstart", SqlType.TIMESTAMP),
            Column("wend", SqlType.TIMESTAMP, event_time=True),
        ]
        self.schema = Schema(window_cols).concat(input.schema)
        self.bounded = input.bounded
        if input.completion_indices is None:
            self.completion_indices = None
        else:
            self.completion_indices = tuple(
                i + 2 for i in input.completion_indices
            )
        self.emit_key_indices = tuple(i + 2 for i in input.emit_key_indices)

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "WindowNode":
        (child,) = inputs
        return WindowNode(
            child,
            self.kind,
            self.timecol,
            self.size,
            self.slide,
            self.offset,
            self.key_indices,
        )

    def _describe(self) -> str:
        parts = [
            f"timecol=${self.timecol}",
            f"size={fmt_duration(self.size)}",
        ]
        if self.slide is not None:
            parts.append(f"slide={fmt_duration(self.slide)}")
        if self.offset:
            parts.append(f"offset={fmt_duration(self.offset)}")
        if self.key_indices:
            parts.append(f"keys={list(self.key_indices)}")
        return f"{self.kind.value}({', '.join(parts)})"


@dataclass(frozen=True)
class AggCall:
    """One aggregate in an AggregateNode.

    ``arg_index`` is the input ordinal aggregated over, or ``None`` for
    ``COUNT(*)``.
    """

    function: AggregateFunction
    arg_index: Optional[int]
    output: Column
    distinct: bool = False

    def __str__(self) -> str:
        arg = "*" if self.arg_index is None else f"${self.arg_index}"
        d = "DISTINCT " if self.distinct else ""
        return f"{self.function.name}({d}{arg}) AS {self.output.name}"


def _describe_absorbed(node: LogicalNode) -> str:
    """The selections the fusion pass folded into an aggregate node, as
    ``, in=[...]`` (the input columns an absorbed Project below picked)
    and ``, out=[...]`` (the columns of the full row emitted)."""
    parts = ""
    for label, picked in (("in", node.reads), ("out", node.select)):
        if picked is not None:
            parts += f", {label}=[{', '.join(f'${i}' for i in picked)}]"
    return parts


class AggregateNode(LogicalNode):
    """Grouped aggregation.

    Group keys are input ordinals (the planner pre-projects computed
    keys).  Output schema is the group key columns followed by the
    aggregate results.

    ``reads`` and ``select`` are set only on the copies the fusion pass
    (:mod:`repro.plan.pipeline`) makes when it absorbs a column-selecting
    Project: ``reads`` is the input ordinals a Project below picked
    (the group and argument ordinals already point through it), and
    ``select`` the columns of the full ``group + aggregates`` row a
    Project above kept — what the operator emits.
    """

    reads: Optional[tuple[int, ...]] = None
    select: Optional[tuple[int, ...]] = None

    def __init__(
        self,
        input: LogicalNode,
        group_indices: Sequence[int],
        aggs: Sequence[AggCall],
    ):
        self.input = input
        self.group_indices = tuple(group_indices)
        self.aggs = tuple(aggs)
        self.inputs = (input,)
        cols = [input.schema.columns[i] for i in self.group_indices]
        cols.extend(agg.output for agg in aggs)
        self.schema = Schema(cols)
        self.bounded = input.bounded
        completion = tuple(
            out_idx
            for out_idx, in_idx in enumerate(self.group_indices)
            if input.schema.columns[in_idx].event_time
        )
        self.completion_indices = completion if completion else None
        self.emit_key_indices = tuple(range(len(self.group_indices)))

    @property
    def event_time_key_positions(self) -> tuple[int, ...]:
        """Positions within the group key that are event time columns."""
        return tuple(
            pos
            for pos, in_idx in enumerate(self.group_indices)
            if self.input.schema.columns[in_idx].event_time
        )

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "AggregateNode":
        (child,) = inputs
        return AggregateNode(child, self.group_indices, self.aggs)

    def _describe(self) -> str:
        keys = ", ".join(f"${i}" for i in self.group_indices)
        aggs = ", ".join(str(a) for a in self.aggs)
        return f"Aggregate(group=[{keys}], aggs=[{aggs}]{_describe_absorbed(self)})"


class PartialAggregateNode(LogicalNode):
    """Shard-local half of a two-phase aggregation.

    The physical rewrite (``repro.plan.physical``) replaces the
    grouped :class:`AggregateNode` at the root of each shard's plan
    with this node; the other half — :class:`CombineAggregateOperator`
    at the merge stage — replays or folds its payloads to reproduce
    the single-phase changelog.  The output is not a relation users
    see: each "row" is one opaque per-batch payload ``(tag, entries)``,
    so the schema is a single untyped column and completion metadata
    is dropped (payloads are never emitted to a sink).  Like the
    aggregate it splits, it may absorb a column-selecting Project below
    it (``reads``); it emits payloads, so nothing is selected above it.
    """

    reads: Optional[tuple[int, ...]] = None
    select = None

    def __init__(
        self,
        input: LogicalNode,
        group_indices: Sequence[int],
        aggs: Sequence[AggCall],
    ):
        self.input = input
        self.group_indices = tuple(group_indices)
        self.aggs = tuple(aggs)
        self.inputs = (input,)
        self.schema = Schema([Column("$partial", SqlType.NULL)])
        self.bounded = input.bounded
        self.completion_indices = None
        self.emit_key_indices = ()

    @property
    def event_time_key_positions(self) -> tuple[int, ...]:
        """Positions within the group key that are event time columns."""
        return tuple(
            pos
            for pos, in_idx in enumerate(self.group_indices)
            if self.input.schema.columns[in_idx].event_time
        )

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "PartialAggregateNode":
        (child,) = inputs
        return PartialAggregateNode(child, self.group_indices, self.aggs)

    def _describe(self) -> str:
        keys = ", ".join(f"${i}" for i in self.group_indices)
        aggs = ", ".join(str(a) for a in self.aggs)
        return (
            f"PartialAggregate(group=[{keys}], aggs=[{aggs}]"
            f"{_describe_absorbed(self)})"
        )


class OverNode(LogicalNode):
    """Analytic (OVER) window aggregation over event-time order.

    Appendix B.2.3 names "OVER windows with an ORDER BY clause on an
    event time attribute" among the operator classes that exploit
    watermarks.  Each input row is emitted once watermark-stable,
    augmented with running aggregates over its partition's preceding
    rows (a ROWS frame of ``frame_rows`` preceding, or all of them).

    Output schema: all input columns followed by one column per call.
    """

    def __init__(
        self,
        input: LogicalNode,
        partition_indices: Sequence[int],
        order_index: int,
        calls: Sequence[AggCall],
        frame_rows: Optional[int],
    ):
        order_col = input.schema.columns[order_index]
        if order_col.type is not SqlType.TIMESTAMP:
            raise PlanError(
                f"OVER ORDER BY requires a TIMESTAMP column; "
                f"{order_col.name!r} is {order_col.type}"
            )
        if not order_col.event_time and not input.bounded:
            # On an unbounded input only a watermarked column gives the
            # deterministic sequencing the frame semantics need; on a
            # bounded input everything is stable, so any timestamp works.
            raise PlanError(
                "OVER on an unbounded input requires ORDER BY a "
                f"watermarked event time column; {order_col.name!r} is not"
            )
        self.input = input
        self.partition_indices = tuple(partition_indices)
        self.order_index = order_index
        self.calls = tuple(calls)
        self.frame_rows = frame_rows
        self.inputs = (input,)
        cols = list(input.schema.columns)
        cols.extend(call.output for call in calls)
        self.schema = Schema(cols)
        self.bounded = input.bounded
        # rows are emitted exactly when the watermark stabilizes them,
        # so the ordering column bounds when a row can appear; emitted
        # rows never change.
        self.completion_indices = (order_index,)
        self.emit_key_indices = ()

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "OverNode":
        (child,) = inputs
        return OverNode(
            child,
            self.partition_indices,
            self.order_index,
            self.calls,
            self.frame_rows,
        )

    def _describe(self) -> str:
        frame = (
            f"rows={self.frame_rows} preceding"
            if self.frame_rows is not None
            else "unbounded preceding"
        )
        calls = ", ".join(str(c) for c in self.calls)
        return (
            f"Over(partition={list(self.partition_indices)}, "
            f"order=${self.order_index}, {frame}, [{calls}])"
        )


class JoinKind(enum.Enum):
    INNER = "INNER"
    LEFT = "LEFT"
    FULL = "FULL"
    CROSS = "CROSS"
    # RIGHT joins never reach the executor: the planner mirrors them
    # into LEFT joins plus a column-reordering projection.


class JoinNode(LogicalNode):
    """A binary join; condition ranges over the concatenated schema."""

    def __init__(
        self,
        left: LogicalNode,
        right: LogicalNode,
        kind: JoinKind,
        condition: Optional[Rex],
    ):
        self.left = left
        self.right = right
        self.kind = kind
        self.condition = condition
        # Physical hints filled in by the optimizer: equi-join hash keys
        # (side-local ordinals) and per-side state-expiry metadata
        # ``(time_index, slack)`` for time-windowed joins.
        self.hash_left: tuple[int, ...] = ()
        self.hash_right: tuple[int, ...] = ()
        self.expire_left: Optional[tuple[int, Duration]] = None
        self.expire_right: Optional[tuple[int, Duration]] = None
        self.inputs = (left, right)
        self.schema = left.schema.concat(right.schema)
        if kind in (JoinKind.LEFT, JoinKind.FULL):
            # Null-extendable columns lose watermark alignment.
            left_cols = list(self.schema.columns[: len(left.schema)])
            right_cols = [
                c.degraded() for c in self.schema.columns[len(left.schema):]
            ]
            if kind is JoinKind.FULL:
                left_cols = [c.degraded() for c in left_cols]
            self.schema = Schema(left_cols).concat(Schema(right_cols))
        self.bounded = left.bounded and right.bounded
        offset = len(left.schema)
        if kind is JoinKind.FULL:
            # either side's null rows can flip on the other's changes;
            # no per-row completion bound exists
            self.completion_indices = None
        elif left.completion_indices is None or (
            kind is not JoinKind.LEFT and right.completion_indices is None
        ):
            self.completion_indices = None
        else:
            right_part = (
                tuple(i + offset for i in right.completion_indices)
                if right.completion_indices is not None
                else ()
            )
            self.completion_indices = left.completion_indices + right_part
        self.emit_key_indices = left.emit_key_indices + tuple(
            i + offset for i in right.emit_key_indices
        )

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "JoinNode":
        left, right = inputs
        clone = JoinNode(left, right, self.kind, self.condition)
        clone.hash_left = self.hash_left
        clone.hash_right = self.hash_right
        clone.expire_left = self.expire_left
        clone.expire_right = self.expire_right
        return clone

    def _describe(self) -> str:
        cond = f" on {self.condition}" if self.condition is not None else ""
        return f"Join({self.kind.value}{cond})"


class SemiJoinNode(LogicalNode):
    """Semi/anti join: ``WHERE expr [NOT] IN (SELECT col FROM ...)``.

    The output is the left relation filtered by match-count against the
    subquery's (single-column) result — left rows flip in and out as
    the right side changes, so the operator is stateful and retractive.
    The left schema passes through untouched, alignment flags included.

    NULL note: a left value of NULL never matches (IN is unknown →
    filtered), and NULL right values match nothing.  For NOT IN, SQL's
    letter says a NULL anywhere in the subquery empties the result; we
    implement the match-count semantics engines actually ship and
    document the deviation.
    """

    def __init__(
        self,
        left: LogicalNode,
        right: LogicalNode,
        left_expr: Rex,
        negated: bool,
    ):
        if len(right.schema) != 1:
            raise PlanError(
                "IN (SELECT ...) requires a single-column subquery; got "
                f"{len(right.schema)} columns"
            )
        self.left = left
        self.right = right
        self.left_expr = left_expr
        self.negated = negated
        self.inputs = (left, right)
        self.schema = left.schema
        self.bounded = left.bounded and right.bounded
        # a left row can flip as the right side changes; only a bounded
        # right side lets left completion metadata survive
        self.completion_indices = (
            left.completion_indices if right.bounded else None
        )
        self.emit_key_indices = left.emit_key_indices

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "SemiJoinNode":
        left, right = inputs
        return SemiJoinNode(left, right, self.left_expr, self.negated)

    def _describe(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"SemiJoin({self.left_expr} {op} subquery)"


class TemporalJoinNode(LogicalNode):
    """A correlated temporal-table join (Section 8).

    Each left row is enriched with the right-side *version* valid at the
    left row's event time: per equi-key, the right row with the greatest
    version timestamp not exceeding the left row's timestamp.  Emission
    waits until the right watermark passes the left row's time, so the
    chosen version is final — which also makes output rows insert-only.

    The right side must be an append-only stream of versions whose
    event time column is the version timestamp.
    """

    def __init__(
        self,
        left: LogicalNode,
        right: LogicalNode,
        left_time_index: int,
        right_time_index: int,
        left_keys: Sequence[int],
        right_keys: Sequence[int],
    ):
        left_time_col = left.schema.columns[left_time_index]
        if not left_time_col.event_time:
            raise PlanError(
                "FOR SYSTEM_TIME AS OF requires a watermarked event time "
                f"column; {left_time_col.name!r} is not"
            )
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("temporal join requires at least one equi-key pair")
        self.left = left
        self.right = right
        self.left_time_index = left_time_index
        self.right_time_index = right_time_index
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.inputs = (left, right)
        # version columns are historical lookups, not watermark-aligned
        right_part = Schema([c.degraded() for c in right.schema.columns])
        self.schema = left.schema.concat(right_part)
        self.bounded = left.bounded and right.bounded
        self.completion_indices = left.completion_indices
        self.emit_key_indices = left.emit_key_indices

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "TemporalJoinNode":
        left, right = inputs
        return TemporalJoinNode(
            left,
            right,
            self.left_time_index,
            self.right_time_index,
            self.left_keys,
            self.right_keys,
        )

    def _describe(self) -> str:
        keys = ", ".join(
            f"${l}=${r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return (
            f"TemporalJoin(as of ${self.left_time_index}, "
            f"version=${self.right_time_index}, on {keys})"
        )


class UnionNode(LogicalNode):
    """``UNION ALL`` (bag union) of same-typed inputs."""

    def __init__(self, inputs: Sequence[LogicalNode]):
        if len(inputs) < 2:
            raise PlanError("union requires at least two inputs")
        first = inputs[0].schema
        for other in inputs[1:]:
            if len(other.schema) != len(first):
                raise PlanError("union inputs must have the same arity")
            for a, b in zip(first.columns, other.schema.columns):
                if a.type is not b.type and SqlType.NULL not in (a.type, b.type):
                    raise PlanError(
                        f"union column type mismatch: {a.type} vs {b.type}"
                    )
        self.inputs = tuple(inputs)
        cols = []
        for i, col in enumerate(first.columns):
            aligned = all(
                node.schema.columns[i].event_time for node in inputs
            )
            cols.append(
                Column(col.name, col.type, event_time=aligned and col.event_time)
            )
        self.schema = Schema(cols)
        self.bounded = all(node.bounded for node in inputs)
        completions = [node.completion_indices for node in inputs]
        if any(c is None for c in completions):
            self.completion_indices = None
        else:
            shared = set(completions[0])
            for c in completions[1:]:
                shared &= set(c)
            self.completion_indices = tuple(sorted(shared)) if shared else None
        self.emit_key_indices = ()

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "UnionNode":
        return UnionNode(inputs)

    def _describe(self) -> str:
        return f"UnionAll({len(self.inputs)} inputs)"


class SetOpNode(LogicalNode):
    """INTERSECT [ALL] / EXCEPT [ALL] with bag semantics.

    Output multiplicity per row: ``min(l, r)`` for INTERSECT ALL,
    ``max(l - r, 0)`` for EXCEPT ALL; the DISTINCT variants cap the
    result at one when positive.  Maintained incrementally from both
    sides' counts, so rows flip in and out as either input changes.
    """

    def __init__(self, left: LogicalNode, right: LogicalNode, op: str,
                 all: bool):
        if op not in ("INTERSECT", "EXCEPT"):
            raise PlanError(f"unknown set operation {op}")
        if len(left.schema) != len(right.schema):
            raise PlanError(f"{op} inputs must have the same arity")
        for a, b in zip(left.schema.columns, right.schema.columns):
            if a.type is not b.type and SqlType.NULL not in (a.type, b.type):
                raise PlanError(
                    f"{op} column type mismatch: {a.type} vs {b.type}"
                )
        self.left = left
        self.right = right
        self.op = op
        self.all = all
        self.inputs = (left, right)
        # rows can leave when the other side changes: degrade alignment
        self.schema = Schema([c.degraded() for c in left.schema.columns])
        self.bounded = left.bounded and right.bounded
        self.completion_indices = None
        self.emit_key_indices = ()

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "SetOpNode":
        left, right = inputs
        return SetOpNode(left, right, self.op, self.all)

    def _describe(self) -> str:
        suffix = " ALL" if self.all else ""
        return f"{self.op}{suffix}"


class SortNode(LogicalNode):
    """ORDER BY / LIMIT; only meaningful for table materialization."""

    def __init__(
        self,
        input: LogicalNode,
        keys: Sequence[tuple[int, bool]],
        limit: Optional[int] = None,
    ):
        self.input = input
        self.keys = tuple(keys)
        self.limit = limit
        self.inputs = (input,)
        self.schema = input.schema
        self.bounded = input.bounded
        self.completion_indices = input.completion_indices
        self.emit_key_indices = input.emit_key_indices

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "SortNode":
        (child,) = inputs
        return SortNode(child, self.keys, self.limit)

    def _describe(self) -> str:
        keys = ", ".join(
            f"${i} {'ASC' if asc else 'DESC'}" for i, asc in self.keys
        )
        limit = f" limit={self.limit}" if self.limit is not None else ""
        return f"Sort([{keys}]{limit})"


class ValuesNode(LogicalNode):
    """An inline constant relation."""

    def __init__(self, schema: Schema, rows: Sequence[tuple]):
        self.schema = schema
        self.rows = tuple(tuple(r) for r in rows)
        self.inputs = ()
        self.bounded = True
        self.completion_indices = None
        self.emit_key_indices = ()

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "ValuesNode":
        assert not inputs
        return self

    def _describe(self) -> str:
        return f"Values({len(self.rows)} rows)"
