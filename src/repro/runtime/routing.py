"""Event routing: splitting the global event sequence across shards.

The router consumes the same deterministically merged event sequence
the serial executor replays (``merge_source_events``) and assigns every
event a global sequence number:

* a **row event** goes to exactly one shard — the hash of its partition
  key (per the :class:`~repro.plan.partition.PartitionSpec`); rows of
  sources the query never scans are broadcast, which is a no-op in
  every shard but keeps per-shard bookkeeping aligned with the serial
  executor;
* a **watermark event** is broadcast to every shard, so each shard's
  view of completeness is exactly the serial one — the precondition for
  identical late-row dropping and state expiry on all shards.

The sequence numbers are what the merge stage later sorts by, so shard
outputs reassemble into the serial changelog order.
"""

from __future__ import annotations

from ..core.tvr import RowEvent, StreamEvent
from ..plan.partition import PartitionSpec

__all__ = ["ShardEvent", "partition_events"]

#: One routed event: (global sequence number, event, source name).
ShardEvent = tuple[int, StreamEvent, str]


def partition_events(
    events: list[tuple[StreamEvent, str]],
    spec: PartitionSpec,
    shards: int,
) -> list[list[ShardEvent]]:
    """Split a merged event sequence into per-shard subsequences.

    Each shard's subsequence preserves global (processing-time) order,
    so feeding it through ``Dataflow.process`` never violates the
    executor's monotonicity contract.
    """
    tasks: list[list[ShardEvent]] = [[] for _ in range(shards)]
    for seq, (event, source) in enumerate(events):
        owner = (
            spec.shard_of(source, event.change.values, shards)
            if isinstance(event, RowEvent)
            else None  # watermarks are broadcast, like unrouted rows
        )
        for task in tasks if owner is None else (tasks[owner],):
            task.append((seq, event, source))
    return tasks
