"""The one place an execution config becomes a dataflow.

Every caller that needs a flow — the engine's one-shot runs and
``dataflow()`` / ``sharded_dataflow()`` handles, ``EXPLAIN``, the
service session's resident flows, checkpoint restore — goes through
:func:`build_flow`, so a config field means the same thing wherever it
is read.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.tvr import TimeVaryingRelation
from ..exec.executor import Dataflow
from ..plan.partition import PartitionDecision
from ..plan.planner import QueryPlan

__all__ = ["build_flow"]


def build_flow(
    plans: Sequence[tuple[str, QueryPlan]],
    sources: dict[str, TimeVaryingRelation],
    config,
    decision: Optional[PartitionDecision] = None,
    structure: Optional[dict] = None,
):
    """The flow ``config`` (a resolved ``ExecutionConfig``) describes,
    unrun.

    ``plans`` are ``(output_id, plan)`` pairs — exactly one for a fresh
    flow; with ``structure`` (the checkpoint payload being restored)
    every output of the checkpointed flow, rebuilt structure-exact via
    ``from_structure``.

    ``decision`` is the partition analyzer's verdict when the caller
    wants shards: a partitionable one yields a
    :class:`~repro.runtime.sharded.ShardedDataflow` over
    ``config.parallelism`` shards, anything else the serial
    :class:`~repro.exec.executor.Dataflow`.  A sharded flow is two-phase
    unless ``two_phase="off"``: whether an individual output splits is
    decided per plan when it is attached (``split_eligibility``), so the
    answer never depends on which member query happens to be first.
    """
    kind, sharded = Dataflow, {}
    if decision is not None and decision.partitionable:
        from .sharded import ShardedDataflow  # (the shard runtime loads here)

        kind = ShardedDataflow
        sharded = dict(
            spec=decision.spec,
            two_phase=config.two_phase != "off",
        )
    if structure is not None:
        return kind.from_structure(plans, structure, sources, config, **sharded)
    ((output_id, plan),) = plans
    return kind(plan, sources, config, output_id, **sharded)
