"""The deterministic merge stage: shard changelogs → serial changelog.

Every output change of a partitionable plan is *row-driven*: the
analyzer excludes all operators that emit on watermark advances or
processing-time timers, so each change is caused by exactly one input
row event, which was routed to exactly one shard.  Tagging shard output
slices with the triggering event's global sequence number therefore
gives a total order — sorting by it interleaves the shard changelogs
into precisely the serial executor's output, ``ptime`` ties included.

Watermark events are broadcast, so the shards' watermark observations
are applied to the :class:`~repro.runtime.frontier.WatermarkFrontier`
in (sequence, shard) order; the frontier's published minimum reproduces
the serial root watermark track.

A shard reports both per output as a :class:`ShardLog`, and
:func:`splice` is the one function that folds shard logs into the
merged outputs — for a chunk of one event routed incrementally and for
a whole supervised run alike.  For a two-phase output it drives the
output's combine flow, an ordinary ``Dataflow`` running the merge half
of the split plan, with the reassembled payloads and frontier advances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping, Sequence

from ..core.changelog import Change
from ..core.codec import changes_log, decode_slices, encode_slices
from ..core.errors import ExecutionError
from ..core.times import Timestamp
from ..core.tvr import RowEvent, WatermarkEvent
from ..exec.executor import Dataflow
from ..plan.physical import PARTIALS
from .frontier import WatermarkFrontier

__all__ = [
    "MergedOutput",
    "ShardLog",
    "dedup_by_seq",
    "dedup_observations",
    "double_claim",
    "reassemble",
    "splice",
]

#: One shard's tagged output: ``(tag, changes)``, what one feed made an
#: output gain.  The one statement of what a tag means; there are two
#: spellings and no third:
#:
#: * changes that **carry** their rows' sequence numbers (a partial
#:   payload ``("P2R", n, entries, seqs)``) — the tag is the id of the
#:   run the feed was the shard's share of, and the numbers inside say
#:   where in the run each entry goes;
#: * changes that carry **none** — every row of them has the tag for its
#:   sequence number: the feed was gap-free and the tag is its first
#:   event, which is where all of its output belongs.  (A run's opening
#:   row fed alone is this spelling even on a flow that carries numbers:
#:   its sequence number *is* the run id.)
TaggedSlice = tuple[int, list[Change]]

#: One shard's watermark observation: (global event seq, ptime, value).
WatermarkObservation = tuple[int, Timestamp, Timestamp]


@dataclass
class ShardLog:
    """What one shard said about one output while it was driven.

    ``slices`` tag what each feed of row events made the output gain
    (:data:`TaggedSlice` says with what); ``observations``
    record the output's root watermark after each broadcast watermark
    event.  Both may repeat tags when a restart replayed input — the
    ``dedup_*`` functions collapse them.  ``slices`` pickle through the
    changelog codec (:func:`~repro.core.codec.encode_slices`) and
    decode to the same ``(seq, slice)`` tags.
    """

    slices: list[TaggedSlice] = field(default_factory=list)
    observations: list[WatermarkObservation] = field(default_factory=list)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["slices"] = encode_slices(self.slices)
        return state

    def __setstate__(self, state: dict) -> None:
        state["slices"] = decode_slices(state["slices"])
        self.__dict__.update(state)


class MergedOutput:
    """Per-output merge state: the spliced changelog — ``log``, sealed
    segments then the live tail :func:`splice` extends — and its
    frontier."""

    __slots__ = ("log", "frontier")

    def __init__(self, shards: int):
        self.log = changes_log()
        self.frontier = WatermarkFrontier(shards)


def dedup_by_seq(slices: list[TaggedSlice]) -> tuple[list[TaggedSlice], int]:
    """Collapse re-emitted output slices from restarted shard workers.

    A supervised worker keeps every emission in its log, duplicates
    included — exactly what a worker that crashed *after* shipping
    output but *before* its next checkpoint produces on replay.  Each
    output slice is keyed by the global sequence number of the event
    that caused it, and replay is deterministic, so the first
    occurrence is kept and later occurrences are dropped, returning
    ``(unique slices, changes dropped)``.  A re-emission that does not
    match the original byte for byte means replay diverged — a bug, not
    a duplicate — and raises instead of being silently merged.

    Idempotent: deduping a deduped log drops nothing further (property-
    tested in ``tests/test_faults.py``).
    """
    seen: dict[int, list[Change]] = {}
    unique: list[TaggedSlice] = []
    drops = 0
    for seq, changes in slices:
        prior = seen.get(seq)
        if prior is None:
            seen[seq] = changes
            unique.append((seq, changes))
        else:
            if changes != prior:
                raise ExecutionError(
                    f"replay diverged: event #{seq} re-emitted different "
                    "output after a shard restart"
                )
            drops += len(changes)
    return unique, drops


def dedup_observations(
    observations: list[WatermarkObservation],
) -> list[WatermarkObservation]:
    """Drop re-observed watermark values from replayed input.

    Watermark observations are keyed by global sequence number; replay
    after a restart re-observes the same (ptime, value) pairs, which
    must not be fed to the frontier twice.  Divergent re-observations
    raise, mirroring :func:`dedup_by_seq`.
    """
    seen: dict[int, WatermarkObservation] = {}
    unique: list[WatermarkObservation] = []
    for obs in observations:
        prior = seen.get(obs[0])
        if prior is None:
            seen[obs[0]] = obs
            unique.append(obs)
        elif prior != obs:
            raise ExecutionError(
                f"replay diverged: event #{obs[0]} re-observed a different "
                "watermark after a shard restart"
            )
    return unique


def reassemble(
    shares: Sequence[tuple[int, list[Change]]], tag: int
) -> list[Change]:
    """One run's partial payloads, put back together for the combine
    flow.

    ``shares`` are the ``(shard, changes)`` slices the shards logged
    under one ``tag`` (:data:`TaggedSlice`).  The entries of their
    replay payloads are merged in sequence order into the one payload a
    serial partial stage would have built for the whole run (a row that
    multiplied, under Hop, keeps its entries together and in order:
    they share a number, and the sort is stable).  A payload without numbers has ``tag`` for every entry's —
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


def splice(
    outputs: Mapping[str, MergedOutput],
    combines: Mapping[str, Dataflow],
    logs: Mapping[int, Mapping[str, ShardLog]],
    touched: set[str],
) -> None:
    """Fold shard logs (``logs[shard][output_id]``) into the merged
    outputs, adding to ``touched`` the ids of those it appended to.

    Per output, slices are interleaved by tag and observations by
    (sequence, shard) — a sequence number names either a row feed (the
    run it is a share of, or its own first event) or a broadcast
    watermark, never both — which is exactly the order the serial
    executor met them in.  A slice extends the merged changelog (two
    shards under one tag is then an error); for a two-phase output the
    slices under one tag are the shards' shares of one run, which
    :func:`reassemble` puts back together by the sequence numbers
    inside, and the output's combine flow — the ``Dataflow`` running
    the merge half of the split plan — is fed it **once per run**
    (``process_batch`` under :data:`~repro.plan.physical.PARTIALS`): what
    it hands over (``take_output_of``) is spliced in the run's place.
    An observation moves the frontier, and the combine flow with it
    (``process``) whenever the merged minimum advances, freeing combine
    state exactly when the serial root would.
    """
    for oid, merge in outputs.items():
        combine = combines.get(oid)
        merged, frontier = merge.log.tail, merge.frontier
        entries = [
            (seq, shard, changes, 0, 0)
            for shard, shard_logs in logs.items()
            for seq, changes in shard_logs[oid].slices
        ]
        entries += [
            (seq, shard, None, ptime, value)
            for shard, shard_logs in logs.items()
            for seq, ptime, value in shard_logs[oid].observations
        ]
        entries.sort(key=itemgetter(0, 1))
        i, n = 0, len(entries)
        while i < n:
            seq, shard, changes, ptime, value = entries[i]
            i += 1
            if changes is None:
                advanced = frontier.observe(shard, ptime, value)
                if combine is not None and advanced is not None:
                    combine.process(WatermarkEvent(ptime, advanced), PARTIALS)
                continue
            if combine is not None:
                # Every shard's slice under this tag: the shares of one
                # run, or a lone slice naming its first event.
                first = i - 1
                while i < n and entries[i][0] == seq:
                    i += 1
                payload = reassemble(
                    [(entry[1], entry[2]) for entry in entries[first:i]], seq
                )
                combine.process_batch(
                    [RowEvent(change.ptime, change) for change in payload],
                    PARTIALS,
                )
                changes = combine.take_output_of("main")
            elif i < n and entries[i][0] == seq:
                raise double_claim(shard, entries[i][1], seq)
            if changes:  # (a combine flow may absorb a slice whole)
                merged.extend(changes)
                touched.add(oid)
