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
a whole supervised run alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Mapping, Optional

from ..core.changelog import Change
from ..core.codec import changes_log, decode_slices, encode_slices
from ..core.errors import ExecutionError
from ..core.times import Timestamp
from ..obs.lineage import LineageRecorder
from .combine import CombineStage, double_claim, reassemble
from .frontier import WatermarkFrontier

__all__ = [
    "MergedOutput",
    "ShardLog",
    "dedup_by_seq",
    "dedup_observations",
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


def splice(
    outputs: Mapping[str, MergedOutput],
    stages: Mapping[str, CombineStage],
    logs: Mapping[int, Mapping[str, ShardLog]],
    touched: set[str],
    recorder: Optional[LineageRecorder] = None,
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
    :func:`~repro.runtime.combine.reassemble` puts back together by the
    sequence numbers inside, and the output's combine stage is fed
    **once per run** — its *final* changes are spliced in the run's
    place.  An observation moves the frontier, and the stage with it
    whenever the merged minimum advances, freeing combine state exactly
    when the serial root would.

    With a lineage ``recorder`` the position notes its shard flows left
    (in production order) are drained once and resolved to the merged
    positions their slices landed at.
    """
    landed: dict[str, Iterator[list[int]]] = {}
    for oid, merge in outputs.items():
        stage = stages.get(oid)
        merged, base, frontier = merge.log.tail, merge.log.base, merge.frontier
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
        spans: dict[int, list[list[int]]] = {shard: [] for shard in logs}
        i, n = 0, len(entries)
        while i < n:
            seq, shard, changes, ptime, value = entries[i]
            i += 1
            if changes is None:
                advanced = frontier.observe(shard, ptime, value)
                if stage is not None and advanced is not None:
                    stage.advance(advanced, ptime)
                continue
            count = len(changes)  # shard-local, for the lineage notes
            if stage is not None:
                # Every shard's slice under this tag: the shares of one
                # run, or a lone slice naming its first event.
                first = i - 1
                while i < n and entries[i][0] == seq:
                    i += 1
                changes = stage.feed(
                    reassemble(
                        [(entry[1], entry[2]) for entry in entries[first:i]],
                        seq,
                    ),
                    frontier.current,
                )
            elif i < n and entries[i][0] == seq:
                raise double_claim(shard, entries[i][1], seq)
            start = base + len(merged)
            merged.extend(changes)
            end = base + len(merged)
            if recorder is not None:  # (then no slice spans shards)
                spans[shard].append([start, end, count])
            if end > start:  # (a combine stage may absorb a slice whole)
                touched.add(oid)
        landed[oid] = (span for shard in spans for span in spans[shard])
    if recorder is None:
        return
    # Notes arrive in production order — shard by shard, run by run —
    # and so do the spans above; a note counts shard-local changes, so
    # for a two-phase output (where what landed is the combine stage's
    # output for the slice) the slice's first note takes the whole span.
    open_span: dict[str, list[int]] = {}
    for oid, cause, count in recorder.drain_shard_notes():
        span = open_span.get(oid)
        if span is None or span[2] <= 0:
            span = open_span[oid] = next(landed[oid])
        start, stop, _ = span
        end = stop if oid in stages else start + count
        recorder.record_output(cause, oid, range(start, end))
        span[0] = end
        span[2] -= count
