"""The merge-stage half of two-phase sharded aggregation.

:class:`CombineStage` hosts the
:class:`~repro.exec.operators.aggregate.CombineAggregateOperator` plus
the original plan's stateless finishing operators (the Project/Filter
chain that sat above the aggregate), rebuilt from the logical nodes the
physical split preserved.  The sharded runtime feeds it partial
payloads in global sequence order — one :meth:`feed` per run, the
shards' shares of it put back together by :func:`reassemble` — and
watermark advances from the merged frontier, so the stage sees exactly
the event interleaving the serial executor would and its output splices
into the merged changelog byte-identically.

The stage deliberately mirrors the executor's per-edge behavior:
outputs are compacted between operators when ``coalesce_updates`` is
on (with ``changes_coalesced`` charged to the producing operator, as
``Dataflow._push_changes`` does), every hop of the chain is counted
where it crosses to the next operator
(:func:`~repro.exec.executor.count_edge`, as ``Dataflow._emit_up`` does),
per-operator state peaks are swept after every feed, and root emissions
are recorded into a :class:`~repro.obs.telemetry.RunTelemetry` against
the original plan root's completion columns — at the frontier value the
splice passes in, so per feed rather than settled later.
"""

from __future__ import annotations

import pickle
from typing import Optional, Sequence

from ..core.changelog import Change, compact_intra_instant
from ..core.errors import ExecutionError
from ..core.times import Timestamp
from ..exec.executor import count_edge
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import RunTelemetry

__all__ = ["CombineStage", "double_claim", "reassemble"]


def reassemble(
    shares: Sequence[tuple[int, list[Change]]], tag: int
) -> list[Change]:
    """One run's partial payloads, put back together for the stage.

    ``shares`` are the ``(shard, changes)`` slices the shards logged
    under one ``tag`` (:data:`~repro.runtime.merge.TaggedSlice`).  The
    entries of their replay payloads are merged in sequence order into
    the one payload a serial partial stage would have built for the
    whole run (a row that multiplied, under Hop, keeps its entries
    together and in order: they share a number, and the sort is
    stable).  A payload without numbers has ``tag`` for every entry's —
    so a lone one is already in order and passes through untouched, and
    two of them are two shards claiming one event.
    """
    if len(shares) == 1 and all(
        len(change.values) == 3 for change in shares[0][1]
    ):
        return shares[0][1]
    rows = 0
    entries: list[tuple] = []
    seqs: list[int] = []
    owner: dict[int, int] = {}  # sequence number -> the shard claiming it
    for shard, changes in shares:
        for change in changes:
            _, count, part, *numbers = change.values
            numbers = numbers[0] if numbers else (tag,) * len(part)
            rows += count
            entries += part
            seqs += numbers
            for seq in numbers:
                if owner.setdefault(seq, shard) != shard:
                    raise double_claim(owner[seq], shard, seq)
    order = sorted(range(len(seqs)), key=seqs.__getitem__)
    first = shares[0][1][0]
    return [
        Change(
            first.kind,
            ("P2R", rows, tuple([entries[i] for i in order])),
            first.ptime,
        )
    ]


def double_claim(first: int, second: int, seq: int) -> ExecutionError:
    """Two shards attributed output to one event: a broadcast row that
    produced some, or routing that split a key."""
    return ExecutionError(
        f"shards {first} and {second} both produced output for event "
        f"#{seq}; the plan is not cleanly partitioned"
    )


class CombineStage:
    """Combine operator + finishing chain, driven by the merge loop."""

    def __init__(
        self,
        split,
        allowed_lateness: int = 0,
        coalesce_updates: bool = False,
    ):
        # Imported here: repro.exec imports repro.plan, and this module
        # is imported by repro.runtime.sharded which repro.exec's
        # executor does not depend on — but keeping the import local
        # avoids ever creating a cycle through repro.exec.compile.
        from ..exec.compile import build_operator
        from ..exec.operators.aggregate import CombineAggregateOperator

        self._split = split
        self._coalesce = coalesce_updates
        agg = split.aggregate
        combine = CombineAggregateOperator(
            agg.schema,
            agg.group_indices,
            agg.aggs,
            agg.event_time_key_positions,
            agg.input.bounded,
            allowed_lateness=allowed_lateness,
        )
        # ``split.finish`` is root-first; build upward from the combine
        # so each finishing operator consumes the one below it.
        ops: list = [combine]
        prev = combine
        for node in reversed(split.finish):
            op = build_operator(node, [prev], allowed_lateness)
            ops.append(op)
            prev = op
        self._combine = combine
        self._ops = ops  # feed order: combine first, root last
        self._registry = MetricsRegistry(ops)
        root_node = split.finish[0] if split.finish else agg
        self._completion = root_node.completion_indices
        self.telemetry = RunTelemetry()

    # -- driving ---------------------------------------------------------------

    def feed(
        self, changes: Sequence[Change], root_watermark: Timestamp
    ) -> list[Change]:
        """Run one merged slice of partial payloads through the stage.

        Returns the final changes to splice into the merged output at
        the slice's position.
        """
        current: list[Change] = list(changes)
        producer = None  # the slice itself: no operator here produced it
        for op in self._ops:
            if not current:
                break
            count_edge(current, producer, [(op, 0)])
            current, producer = op.on_batch(0, current), op
            if self._coalesce and len(current) > 1:
                current, dropped = compact_intra_instant(current)
                op.counters.changes_coalesced += dropped
        self._registry.observe_state()
        if current:
            count_edge(current, producer, ())
            self.telemetry.record_emit_run(
                current, self._completion, root_watermark
            )
        return current

    def advance(self, value: Timestamp, ptime: Timestamp) -> None:
        """Propagate a merged-frontier advance through the stage.

        Watermark advances free combine state but never produce output
        — two-phase splitting is only planned for row-driven
        (partitionable) plans, so anything else is a bug.
        """
        wm: Optional[Timestamp] = value
        for op in self._ops:
            changes, wm = op.process_watermark(0, wm, ptime)
            if changes:
                raise ExecutionError(
                    "combine stage produced output on a watermark advance; "
                    "the plan should not have been split"
                )
            if wm is None:
                break
        self._registry.observe_state()

    # -- introspection ---------------------------------------------------------

    @property
    def combine_operator(self):
        return self._combine

    @property
    def operator_count(self) -> int:
        return len(self._ops)

    def state_rows(self) -> int:
        return sum(op.state_size() for op in self._ops)

    def changes_coalesced(self) -> int:
        return sum(op.counters.changes_coalesced for op in self._ops)

    def peak_state_rows(self) -> int:
        return sum(op.counters.peak_state_rows for op in self._ops)

    def expired_rows(self) -> int:
        return sum(op.expired_rows for op in self._ops)

    def metrics_entries(self) -> list[dict]:
        """Per-operator metric blocks, plan-root first (depth 0 at the
        top of the finishing chain, the combine deepest)."""
        entries = []
        for depth, op in enumerate(reversed(self._ops)):
            entry = op.metrics()
            entry["depth"] = depth
            entry["leaf"] = False
            entry["shared_by"] = 1
            entries.append(entry)
        return entries

    # -- checkpointing ---------------------------------------------------------

    def snapshot(self) -> bytes:
        """The stage's state, serialized on the spot: operator snapshots
        are references into live state (see ``Operator.state_snapshot``)
        and must not outlive the next ``feed``."""
        return pickle.dumps(
            {
                "ops": [op.state_snapshot() for op in self._ops],
                "telemetry": self.telemetry,
            },
            pickle.HIGHEST_PROTOCOL,
        )

    def restore(self, payload) -> None:
        """Adopt a :meth:`snapshot` (bytes; or the plain dict that
        pre-codec sharded checkpoints embedded)."""
        if not isinstance(payload, dict):
            payload = pickle.loads(payload)
        states = payload["ops"]
        if len(states) != len(self._ops):
            raise ExecutionError(
                f"combine stage shape changed: checkpoint has "
                f"{len(states)} operators, stage has {len(self._ops)}"
            )
        for op, state in zip(self._ops, states):
            op.state_restore(state)
        restored = payload.get("telemetry")
        if restored is not None:
            self.telemetry = restored
