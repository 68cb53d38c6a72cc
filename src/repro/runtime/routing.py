"""Event routing: splitting the run sequence across shards.

The router consumes the runs the serial executor would be fed
(:func:`~repro.exec.executor.event_runs` over the deterministically
merged event sequence) and numbers every event in delivery order:

* a **row event** goes to exactly one shard — the hash of its partition
  key (per the :class:`~repro.plan.partition.PartitionSpec`); rows of
  sources the query never scans are broadcast, which is a no-op in
  every shard but keeps per-shard bookkeeping aligned with the serial
  executor;
* a **watermark event** is broadcast to every shard, so each shard's
  view of completeness is exactly the serial one — the precondition for
  identical late-row dropping and state expiry on all shards.

A shard gets its share of a run as **one task**, whole: the rows it
owns, in order, with their sequence numbers — which have gaps wherever
another shard owns the row in between — under the run's id (the
sequence number of the run's first event).  The run was formed once,
here in the parent; a shard never re-forms it, so a restarted worker
is fed exactly the shares the failed one was.  The sequence numbers are
what the merge stage later sorts by, so shard outputs reassemble into
the serial changelog order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.tvr import RowEvent, StreamEvent
from ..plan.partition import PartitionSpec, stable_hash

__all__ = ["ShardTask", "partition_events"]

#: One shard's share of one run: (run id, the sequence numbers of its
#: events, the events, source name).
ShardTask = tuple[int, Sequence[int], Sequence[StreamEvent], str]


def partition_events(
    runs: Iterable[tuple[Sequence[StreamEvent], str]],
    spec: PartitionSpec,
    shards: int,
) -> list[list[ShardTask]]:
    """Split ``(events, source)`` runs into per-shard task lists.

    Each shard's list preserves global (processing-time) order, so
    feeding it never violates the executor's monotonicity contract.

    The hash behind a route is taken once per distinct key for the
    duration of the call (``int`` and ``str`` keys only: equal keys of
    those types have equal ``repr``, which is what is hashed — ``1``
    and ``1.0`` are equal and do not).
    """
    tasks: list[list[ShardTask]] = [[] for _ in range(shards)]
    owners: dict[str, dict] = {}  # source -> {key: shard}
    seq = 0
    for events, source in runs:
        run = seq
        seq += len(events)
        route = (
            spec.routes.get(source.lower())
            if isinstance(events[0], RowEvent)
            else None
        )
        if route is None:
            # Watermarks are broadcast, like unrouted rows.
            task = (run, range(run, seq), events, source)
            for shard_tasks in tasks:
                shard_tasks.append(task)
            continue
        known = owners.get(source)
        if known is None:
            known = owners[source] = {}
        shares: dict[int, tuple[list[int], list[StreamEvent]]] = {}
        for number, event in enumerate(events, run):
            key = route.key_of(event.change.values)
            if type(key) is int or type(key) is str:
                owner = known.get(key)
                if owner is None:
                    owner = known[key] = stable_hash(key) % shards
            else:
                owner = stable_hash(key) % shards
            share = shares.get(owner)
            if share is None:
                share = shares[owner] = ([], [])
            share[0].append(number)
            share[1].append(event)
        for owner, (seqs, share_events) in shares.items():
            tasks[owner].append((run, seqs, share_events, source))
    return tasks
