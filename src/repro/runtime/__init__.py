"""Sharded parallel execution runtime.

Sits between a planned query and the serial :class:`~repro.exec.executor.Dataflow`:
the partition analyzer (:mod:`repro.plan.partition`) proves a query
key-partitionable, :class:`ShardedDataflow` runs N independent shard
dataflows with hash routing and broadcast watermarks, a
:class:`WatermarkFrontier` publishes the minimum watermark across
shards, and the deterministic merge stage reassembles the shard
changelogs into the exact serial output.

Batch runs are fault tolerant: every shard worker executes under a
:class:`ShardSupervisor` (:mod:`repro.runtime.supervisor`) that
restarts it from its last checkpoint on failure, replays its input,
and relies on sequence-number dedup to keep the merged output exact;
:mod:`repro.runtime.faults` is the deterministic fault-injection
harness (:class:`FaultPlan`) that makes every recovery path testable.

Guarantee: for any partitionable query, the sharded result — values,
``ptime``, ``undo``, ``ver``, and ordering — is identical to the serial
engine's, with or without worker failures along the way (see
``docs/RUNTIME.md`` for the argument).
"""

from ..lazy import lazy_exports

# (the shard runtime loads when the first sharded flow is built)
__getattr__ = lazy_exports(__name__, {
    ".backends": "run_shards",
    ".faults": "FAULT_KINDS FaultInjector FaultPlan FaultSpec InjectedCrash "
               "InjectedFault InjectedHang",
    ".frontier": "WatermarkFrontier",
    ".sharded": "ShardedDataflow",
    ".supervisor": "ShardSupervisor SupervisedOutcome",
    "..config": "RetryPolicy",
})

__all__ = [
    "ShardedDataflow",
    "WatermarkFrontier",
    "run_shards",
    "RetryPolicy",
    "ShardSupervisor",
    "SupervisedOutcome",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "FAULT_KINDS",
    "InjectedFault",
    "InjectedCrash",
    "InjectedHang",
]
