"""Physical planning: the one-phase / two-phase aggregation choice.

The sharded runtime (``repro.runtime.sharded``) routes rows to their
owner shard and merges every output change at the sink, so a grouped
aggregation ships one retract/insert pair per input row across the
merge.  When the aggregate is *decomposable* — partial state folded on
each shard and combined once per micro-batch reproduces the
single-phase result — the planner can instead run a
:class:`~repro.plan.logical.PartialAggregateNode` on every shard and a
single combine operator at the merge stage.  The partial stage is the
pre-aggregate reduction before the merge reshuffle: the only rows that
cross shards are one payload per (shard, batch), not one changelog
entry per input row.  Both halves are ordinary plans: the merge half is
the original plan with the aggregate replaced by a
:class:`CombineAggregateNode` leaf, and runs in a ``Dataflow`` of its
own.

The choice is made by :func:`plan_physical` from two inputs:

* **eligibility** (:func:`split_eligibility`) — the plan must end in a
  grouped aggregate (optionally under stateless Project/Filter
  finishing steps) whose functions all opt into the delta protocol
  (``AggregateFunction.decomposable``);
* **configuration** — ``ExecutionConfig.two_phase`` is ``auto`` or
  ``off``.

An eligible sharded aggregate always splits unless ``two_phase="off"``:
the shape follows from the plan and the config, never from a previous
run of the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .logical import (
    AggregateNode,
    FilterNode,
    LogicalNode,
    PartialAggregateNode,
    ProjectNode,
)
from .planner import QueryPlan

__all__ = [
    "PhysicalDecision",
    "TwoPhaseSplit",
    "plan_physical",
    "split_eligibility",
]


#: The source name a merge plan's leaf is fed under: the sharded
#: runtime hands the flow running the merge half each run's partial
#: payloads as row events of this internal source.
PARTIALS = "$partials"


class CombineAggregateNode(AggregateNode):
    """The merge half's leaf: the split aggregate, folded from the
    shards' partial payloads (fed as :data:`PARTIALS`) instead of from
    its ``input``'s rows — so it has no inputs, and the finishing nodes
    rebuilt over it derive the original plan's schema and completion
    columns."""

    def __init__(self, aggregate: AggregateNode):
        super().__init__(aggregate.input, aggregate.group_indices, aggregate.aggs)
        self.inputs = ()

    def _describe(self) -> str:
        return "Combine" + super()._describe()


@dataclass(frozen=True)
class TwoPhaseSplit:
    """The two halves of a split plan.

    ``shard_plan`` is what every shard runs: the aggregate's input under
    ``partial``.  ``merge_plan`` is what the merge runs: the stateless
    nodes that sat between the plan root and the aggregate, rebuilt over
    a :class:`CombineAggregateNode`, so the merged changelog passes
    through the exact same finishing steps as single-phase execution.
    """

    shard_plan: QueryPlan
    partial: PartialAggregateNode
    merge_plan: QueryPlan


def split_eligibility(
    plan: QueryPlan,
) -> tuple[Optional[TwoPhaseSplit], str]:
    """Decide whether ``plan`` can run as partial + combine.

    Returns ``(split, reason)``; ``split`` is ``None`` when the plan
    must stay single-phase, with ``reason`` saying why (surfaced by
    ``explain(mode="physical")``).
    """
    finish: list[LogicalNode] = []
    node = plan.root
    while isinstance(node, (ProjectNode, FilterNode)):
        finish.append(node)
        node = node.inputs[0]
    if not isinstance(node, AggregateNode):
        return None, "no grouped aggregate at the plan root"
    if not node.group_indices:
        # A global aggregate keeps one group for all rows; it is not
        # partitionable in the first place, but guard it here too.
        return None, "global aggregates keep one group for all rows"
    for call in node.aggs:
        if not call.function.decomposable:
            return None, (
                f"{call.function.name} is not decomposable into "
                "partial + combine"
            )
    partial = PartialAggregateNode(node.input, node.group_indices, node.aggs)
    merge: LogicalNode = CombineAggregateNode(node)
    for step in reversed(finish):
        merge = step.with_inputs([merge])
    split = TwoPhaseSplit(
        shard_plan=QueryPlan(root=partial, emit=plan.emit, sql=plan.sql),
        partial=partial,
        merge_plan=QueryPlan(root=merge, emit=plan.emit, sql=plan.sql),
    )
    agg_names = ", ".join(call.function.name for call in node.aggs)
    return split, f"grouped aggregate over decomposable [{agg_names}]"


@dataclass(frozen=True)
class PhysicalDecision:
    """The planner's one-phase / two-phase verdict for one query."""

    mode: str  # 'two_phase' | 'single'
    reason: str

    @property
    def use_two_phase(self) -> bool:
        return self.mode == "two_phase"


def plan_physical(plan: QueryPlan, decision, config) -> PhysicalDecision:
    """Choose the physical aggregation shape for one query.

    ``decision`` is the :class:`~repro.runtime.partition
    .PartitionDecision` for the plan, ``config`` a resolved
    ``ExecutionConfig`` (only ``two_phase`` and ``parallelism`` are
    read).
    """
    if getattr(config, "two_phase", None) == "off":
        return PhysicalDecision("single", "two-phase disabled (two_phase=off)")
    parallelism = getattr(config, "parallelism", 1) or 1
    if parallelism <= 1:
        return PhysicalDecision(
            "single", "serial execution has no merge stage to relieve"
        )
    if not decision.partitionable:
        return PhysicalDecision("single", decision.reason)
    split, reason = split_eligibility(plan)
    if split is None:
        return PhysicalDecision("single", reason)
    return PhysicalDecision("two_phase", reason)
