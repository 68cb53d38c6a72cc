"""Plan fusion: fewer operators per event, the same changelog.

When the executor runs in columnar mode it rewrites the logical tree
before compiling it, in one bottom-up pass (:func:`fuse_pipelines`):

* **absorption** — an aggregate absorbs a Project whose expressions are
  all plain column references (a *selection*).  A selection directly
  below it is folded into its group and argument ordinals (the
  aggregate reads the Project's input, ``AggregateNode.reads``); a
  selection directly above it becomes the columns it emits
  (``AggregateNode.select``).  Grouped and global aggregates absorb
  both ways, a shard's :class:`~repro.plan.logical.PartialAggregateNode`
  only below (it emits payloads), the merge half's
  :class:`~repro.plan.physical.CombineAggregateNode` only above (it has
  no input);
* **pipelines** — every maximal chain of
  :class:`~repro.plan.logical.FilterNode`,
  :class:`~repro.plan.logical.ProjectNode` and ``TUMBLE``
  :class:`~repro.plan.logical.WindowNode` becomes one
  :class:`PipelineNode`, which
  :class:`~repro.exec.operators.pipeline.PipelineOperator` runs as a
  single generated loop (:mod:`repro.exec.codegen`) instead of
  shuttling intermediate batches between operators.

The rewrite is purely physical — a fused or absorbing node copies its
schema and streaming metadata (boundedness, completion columns, emit
keys) verbatim from the node it replaces at the top, so EMIT handling,
watermark alignment and EXPLAIN metadata are unchanged, and so is every
change the plan emits.  A flow that compacts intra-instant churn
(``coalesce_updates``) compacts after every operator, and a selection
that collapses two rows into one compacts differently after the
aggregate than inside it: such a flow is fused without absorption.

Fusion is memoized per plan object (:func:`get_fused_root`).  That is
load-bearing, not a convenience: the executor's sharing machinery —
operator-state donor transplants in ``attach_output``, checkpoint
recipes in ``from_structure``, sharded shard construction from one
shared ``shard_plan`` — correlates operators by the *identity* of
logical nodes.  Re-fusing per dataflow would mint fresh node objects
each time and silently break every one of those id-keyed maps.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Any, Optional, Sequence

from ..core.times import fmt_duration
from .logical import (
    AggregateNode,
    FilterNode,
    LogicalNode,
    PartialAggregateNode,
    ProjectNode,
    WindowKind,
    WindowNode,
)
from .rex import RexInput

__all__ = ["PipelineNode", "absorbed_kinds", "fuse_pipelines", "get_fused_root"]

# ("filter", Rex), ("project", tuple[Rex, ...]) or
# ("tumble", (timecol, size, offset))
PipelineStep = tuple


class PipelineNode(LogicalNode):
    """A fused chain of filter/project/tumble steps over one input.

    ``steps`` run bottom-up: ``steps[0]`` sees the input row, each
    project or tumble replaces the row the following steps observe.
    The node carries the chain top's schema and streaming metadata
    unchanged.
    """

    def __init__(
        self,
        input: LogicalNode,
        steps: Sequence[PipelineStep],
        like: LogicalNode,
    ):
        self.input = input
        self.steps = tuple(steps)
        self.inputs = (input,)
        self.schema = like.schema
        self.bounded = like.bounded
        self.completion_indices = like.completion_indices
        self.emit_key_indices = like.emit_key_indices
        # Retained so with_inputs can rebuild without re-deriving
        # metadata from the (discarded) original chain.
        self._like = like

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "PipelineNode":
        (child,) = inputs
        return PipelineNode(child, self.steps, self._like)

    def step_kinds(self) -> str:
        return "+".join(kind for kind, _ in self.steps)

    def step_labels(self) -> str:
        """The steps as EXPLAIN tags them: kinds, and a tumble's spec."""
        labels = []
        for kind, payload in self.steps:
            if kind == "tumble":
                timecol, size, offset = payload
                spec = f"timecol=${timecol}, size={fmt_duration(size)}"
                if offset:
                    spec += f", offset={fmt_duration(offset)}"
                kind = f"tumble({spec})"
            labels.append(kind)
        return "+".join(labels)

    def _describe(self) -> str:
        return f"Pipeline[{self.step_kinds()}]"


def _is_tumble(node: LogicalNode) -> bool:
    return isinstance(node, WindowNode) and node.kind is WindowKind.TUMBLE


def _selection(node: LogicalNode) -> Optional[tuple[int, ...]]:
    """The input ordinals ``node`` picks, if it is a Project of plain
    column references; ``None`` otherwise."""
    if isinstance(node, ProjectNode) and all(
        isinstance(expr, RexInput) for expr in node.exprs
    ):
        return tuple(expr.index for expr in node.exprs)
    return None


def _absorbs_below(node: LogicalNode) -> bool:
    """An aggregate with an input (a merge plan's combine has none)
    reading through a selection."""
    return (
        isinstance(node, (AggregateNode, PartialAggregateNode))
        and bool(node.inputs)
        and _selection(node.inputs[0]) is not None
    )


def _absorbs_above(node: LogicalNode) -> bool:
    """A selection directly over an aggregate that emits rows."""
    return (
        _selection(node) is not None
        and isinstance(node.inputs[0], AggregateNode)
    )


def _step(link: LogicalNode) -> PipelineStep:
    if isinstance(link, FilterNode):
        return ("filter", link.condition)
    if isinstance(link, ProjectNode):
        return ("project", link.exprs)
    return ("tumble", (link.timecol, link.size, link.offset))


def _absorbed(
    aggregate: LogicalNode,
    below: Optional[LogicalNode],
    above: Optional[LogicalNode],
    rewrite,
) -> LogicalNode:
    """A copy of ``aggregate`` that does the selections ``below`` and
    ``above`` did (either may be ``None``).  A copy, so the class and
    any physical stamp (a partial's ``delta_mode``) carry over; the
    original plan node is never touched."""
    node = copy.copy(aggregate)
    if below is not None:
        picked = _selection(below)
        node.input = rewrite(below.input)
        node.inputs = (node.input,)
        node.reads = picked
        node.group_indices = tuple(picked[i] for i in aggregate.group_indices)
        node.aggs = tuple(
            call
            if call.arg_index is None
            else replace(call, arg_index=picked[call.arg_index])
            for call in aggregate.aggs
        )
    elif aggregate.inputs:
        node.input = rewrite(aggregate.input)
        node.inputs = (node.input,)
    if above is not None:
        node.select = _selection(above)
        node.schema = above.schema
        node.completion_indices = above.completion_indices
        node.emit_key_indices = above.emit_key_indices
    # Lateness and state expiry read these: absorption must not move them.
    assert node.event_time_key_positions == aggregate.event_time_key_positions
    return node


def fuse_pipelines(root: LogicalNode, absorb: bool = True) -> LogicalNode:
    """Rewrite ``root`` so aggregates absorb their selections (unless
    ``absorb`` is false) and maximal Filter/Project/Tumble chains
    become :class:`PipelineNode`.  Nodes with unchanged children are
    returned as-is (identity preserved); rebuilt nodes keep any physical
    attributes stamped on the originals (``delta_mode``)."""

    def rewrite(node: LogicalNode) -> LogicalNode:
        if absorb and _absorbs_above(node):
            aggregate = node.inputs[0]
            below = aggregate.inputs[0] if _absorbs_below(aggregate) else None
            return _absorbed(aggregate, below, node, rewrite)
        if absorb and _absorbs_below(node):
            return _absorbed(node, node.inputs[0], None, rewrite)
        if isinstance(node, (FilterNode, ProjectNode)) or _is_tumble(node):
            chain = [node]
            cursor = node.inputs[0]
            while (
                isinstance(cursor, (FilterNode, ProjectNode))
                or _is_tumble(cursor)
            ) and not (absorb and _absorbs_above(cursor)):
                chain.append(cursor)
                cursor = cursor.inputs[0]
            steps = [_step(link) for link in reversed(chain)]
            return PipelineNode(rewrite(cursor), steps, like=node)
        children = [rewrite(child) for child in node.inputs]
        if all(new is old for new, old in zip(children, node.inputs)):
            return node
        rebuilt = node.with_inputs(children)
        # Physical annotations (e.g. the two-phase splitter stamping
        # delta_mode on the partial aggregate) live outside the
        # constructor; carry them across the rebuild.
        delta_mode = getattr(node, "delta_mode", None)
        if delta_mode is not None:
            rebuilt.delta_mode = delta_mode
        return rebuilt

    return rewrite(root)


def get_fused_root(plan: Any, absorb: bool = True) -> LogicalNode:
    """The fused tree for ``plan`` (a QueryPlan-like object with a
    ``root``), computed once per ``absorb`` and cached on the plan
    object so every dataflow built from the same plan sees identical
    node objects."""
    cached = getattr(plan, "_fused", None)
    if cached is None or cached[0] is not plan.root:
        cached = plan._fused = (plan.root, {})
    fused = cached[1].get(absorb)
    if fused is None:
        fused = cached[1][absorb] = fuse_pipelines(plan.root, absorb)
    return fused


def absorbed_kinds(*roots: LogicalNode) -> list[str]:
    """What the fusion pass folded away in the fused trees ``roots``,
    one name per plan node that no longer has an operator of its own
    (a node the trees share counted once): ``"Project"`` for each
    selection an aggregate absorbed, ``"Tumble"`` for each tumble that
    runs as a pipeline step."""
    kinds: list[str] = []
    seen: set[int] = set()
    pending = list(roots)
    while pending:
        node = pending.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, (AggregateNode, PartialAggregateNode)):
            kinds += [
                "Project"
                for picked in (node.reads, node.select)
                if picked is not None
            ]
        elif isinstance(node, PipelineNode):
            kinds += ["Tumble" for kind, _ in node.steps if kind == "tumble"]
        pending.extend(node.inputs)
    return kinds
