"""The one place an execution config becomes a dataflow.

Every caller that needs a flow — the engine's one-shot runs and
``dataflow()`` / ``sharded_dataflow()`` handles, the service session's
resident flows, checkpoint restore — goes through :func:`build_flow`,
so a config field means the same thing wherever it is read.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.tvr import TimeVaryingRelation
from ..exec.executor import Dataflow
from ..plan.partition import PartitionDecision
from ..plan.physical import plan_physical
from ..plan.planner import QueryPlan
from .sharded import ShardedDataflow

__all__ = ["build_flow"]


def build_flow(
    plans: Sequence[tuple[str, QueryPlan]],
    sources: dict[str, TimeVaryingRelation],
    config,
    decision: Optional[PartitionDecision] = None,
    structure: Optional[dict] = None,
    feedback=None,
):
    """The flow ``config`` (a resolved ``ExecutionConfig``) describes.

    ``plans`` are ``(output_id, plan)`` pairs — exactly one for a fresh
    flow; with ``structure`` (the checkpoint payload being restored)
    every output of the checkpointed flow, rebuilt structure-exact via
    ``from_structure``.

    ``decision`` is the partition analyzer's verdict when the caller
    wants shards: a partitionable one yields a
    :class:`~repro.runtime.sharded.ShardedDataflow` over
    ``config.parallelism`` shards, anything else the serial
    :class:`~repro.exec.executor.Dataflow`.

    Two-phase aggregation is a flow-level switch (on unless
    ``two_phase="off"``): whether an individual output splits is decided
    per plan when it is attached, so the answer never depends on which
    member query happens to be first.  ``feedback`` — a prior run's
    metrics for the (single) plan — lets the physical planner's ``auto``
    mode veto the split on observed fan-in.
    """
    kind = Dataflow
    options = dict(
        allowed_lateness=config.allowed_lateness,
        batch_size=config.batch_size,
        coalesce_updates=config.coalesce_updates,
        columnar=config.columnar,
    )
    if decision is not None and decision.partitionable:
        kind = ShardedDataflow
        two_phase = config.two_phase != "off"
        if two_phase and feedback is not None:
            two_phase = plan_physical(
                plans[0][1], decision, config, feedback=feedback
            ).use_two_phase
        options.update(
            spec=decision.spec,
            shards=config.parallelism,
            backend=config.backend,
            retry=config.retry,
            fault_plan=config.fault_plan,
            two_phase=two_phase,
        )
    if structure is not None:
        return kind.from_structure(plans, structure, sources, **options)
    ((output_id, plan),) = plans
    return kind(plan, sources, output_id=output_id, **options)
