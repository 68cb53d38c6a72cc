"""Replay order, run grouping, and the prepared history replays read.

A query admitted late must equal a run from the start, so every replay
— a serial or sharded ``run()``, a standing query's catch-up, a delta's
explanation, the shell's ``\\watch`` — delivers everything the sources
have recorded.  :func:`merge_source_events` is the one definition of
that order and :func:`event_runs` the one rule that groups it into the
runs a flow is fed.  By snapshot reducibility the recorded history is
the same input for every query that replays it, so a
:class:`PreparedHistory` keeps what the two compute — per run *shape*,
the runs as a compact table — instead of every replay merging, sorting
and grouping it again.  It is valid while every source keeps its
identity and event count, which is checked when a replay starts: the
live ingest path neither reads nor maintains it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import repeat
from operator import attrgetter
from typing import Iterator, Optional, Sequence

from ..core.times import Timestamp
from ..core.tvr import RowEvent, StreamEvent

__all__ = ["PreparedHistory", "RecordedSources", "event_runs", "merge_events",
           "merge_source_events", "replay_runs"]

_ptime = attrgetter("ptime")


def merge_source_events(sources: dict, until: Optional[Timestamp] = None) -> list:
    """All source events merged in deterministic processing-time order.

    Events are ordered by (ptime, source registration order, arrival
    order) — the exact replay order the serial executor uses.  The
    sharded runtime routes the *same* sequence through its shards, which
    is what lets its merged output reproduce the serial changelog
    byte for byte.  ``until`` keeps the events at or before it.
    """
    lists = [tvr.events() for tvr in sources.values()]
    if until is not None:
        lists = [ev[:bisect_right(ev, until, key=_ptime)] for ev in lists]
    return merge_events(list(sources), lists)


def merge_events(names, lists) -> list:
    """:func:`merge_source_events` over event lists already read:
    ``lists[i]`` of source ``names[i]``, as ``(event, name)`` pairs.

    Each source's events are already ptime-ordered (the ``until``
    cutoff has always relied on that), so concatenating the per-source
    lists in registration order and stable-sorting by ptime alone
    yields exactly the (ptime, source order, arrival order) sequence: a
    stable sort keeps the concatenation order among equal ptimes.
    Timsort's galloping mode makes that sort nearly linear over k
    already-sorted runs, and it runs entirely in C — measurably faster
    here than a Python-level k-way heap merge.
    """
    merged: list[tuple[StreamEvent, str]] = []
    for name, events in zip(names, lists):
        merged += zip(events, repeat(name))
    merged.sort(key=lambda pair: pair[0].ptime)
    return merged


def event_runs(
    flow, events: Sequence[tuple[StreamEvent, str]]
) -> Iterator[tuple[int, list[StreamEvent], str]]:
    """The one run-grouping rule: ``(stop, run, source)`` per delivery.

    ``run`` is what ``flow`` is to be fed at once — row events of one
    source, or a single event — and ``stop`` how many of ``events`` are
    consumed once it is.  :func:`replay_runs` delivers the runs to a
    flow; a sharded ``run()`` partitions them, so its shards are fed
    shares of the very runs the serial executor forms.

    With ``batch_size > 1`` a run is a maximal stretch of row events of
    one source, capped at ``batch_size``, and only for sources
    ``batchable_source`` admits.  It spans processing-time instants
    where the flow allows (``flow.run_span_reason()`` is ``None``) and
    stays within one otherwise.  A watermark of the source and an event
    of another scanned source always break runs, so no operator ever
    sees its input watermark move inside a batch, and the batched
    changelog is byte-identical to the per-change one (see
    :meth:`Dataflow.process_batch`).  Every event a run consumes lies
    between its first and its last row's instant, so delivering it
    leaves the clock where the per-event feed would.

    The rule reads nothing of ``flow`` but its run *shape*
    (:meth:`PreparedHistory.shape`).
    """
    batch_size = flow.batch_size
    span = flow.run_span_reason() is None
    batchable: dict[str, bool] = {}  # memo: asked once per run otherwise
    i, n = 0, len(events)
    while i < n:
        event, source = events[i]
        run = [event]
        j = i + 1
        if batch_size > 1 and isinstance(event, RowEvent):
            ok = batchable.get(source)
            if ok is None:
                ok = batchable[source] = flow.batchable_source(source)
        else:
            ok = False
        if ok:
            ptime = event.ptime
            while j < n and len(run) < batch_size:
                nxt, nxt_source = events[j]
                if nxt.ptime != ptime and not span:
                    break
                if nxt_source != source:
                    # An event of another source no scan consumes is a
                    # clock no-op (nothing to deliver, and no timer can
                    # be due inside the run) — absorb it so one
                    # interleaved burst still forms one batch.
                    if flow.scans_source(nxt_source):
                        break
                elif isinstance(nxt, RowEvent):
                    run.append(nxt)
                else:
                    break
                j += 1
            # Absorbed events past the last row's instant would move the
            # clock beyond it: they open the next run instead.  Instants
            # never decrease, so they are a suffix of what was consumed.
            last = run[-1].ptime
            while events[j - 1][0].ptime != last:
                j -= 1
        yield j, run, source
        i = j


def replay_runs(flow, events=None, until=None) -> Iterator[int]:
    """Deliver a replay to ``flow`` run by run: the runs
    :func:`event_runs` forms of the merged ``events`` — or, by default,
    of everything ``flow``'s sources recorded up to ``until``
    (:meth:`PreparedHistory.runs`).

    Yields, after each delivery, how many events have been consumed —
    behind ``replay`` of the serial and the sharded dataflow alike (and
    so behind the serial ``run()``, service catch-up and the shell's
    ``\\watch`` loop).  A row run goes to the body of ``process_batch``
    without its one-instant check: ``event_runs`` keeps a run to one
    instant wherever the flow needs that, and a run that spans instants
    (only a serial flow forms one) needs no check.
    """
    if events is None:
        runs = flow._history.runs(flow, flow._sources, until)
    else:
        runs = event_runs(flow, events)
    for stop, run, source in runs:
        if isinstance(run[0], RowEvent):
            flow._deliver(run, source)
        else:
            flow.process(run[0], source)
        yield stop


class PreparedHistory:
    """The recorded history of some sources, merged and grouped into
    runs once per shape rather than once per replay.

    It holds one list of events per source — one ``events()`` read
    each — and, per run shape a flow asks for, the runs
    :func:`event_runs` forms over :func:`merge_events` of those lists,
    as a flat ``array('q')`` of ``(source, begin, end, stop)``
    quadruples: a run is the slice ``begin:end`` of its source's list,
    cut in C when it is handed out.  Nothing else is kept — no merged
    list, no per-event tuple — so preparing adds a handful of
    GC-tracked objects however long the history is, and the memory
    bound is 32 bytes per run per shape beside one pointer per event.

    The history is valid while the sources it was read from keep their
    names, identities and event counts; a replay that finds any of
    them changed reads them again and forgets every shape.  One
    history is kept at a time: that of the last sources replayed.  A
    replay cut at some ``until`` does not read it.
    """

    __slots__ = ("_key", "_names", "_events", "_shapes", "__weakref__")

    def __init__(self) -> None:
        self.forget()

    def forget(self) -> None:
        """Drop what was read, so no replaced source is kept alive."""
        # (sources' key, their names, their event lists, shape -> table)
        self._key, self._names, self._events, self._shapes = (), [], [], {}

    def shape(self, flow) -> tuple:
        """What :func:`event_runs` reads of ``flow``: its batch size
        and, at a size above one, whether its runs may span instants and,
        per source, whether it is batchable and scanned."""
        if flow.batch_size == 1:
            return (1,)
        return (flow.batch_size, flow.run_span_reason() is None) + tuple(
            (flow.batchable_source(name), flow.scans_source(name))
            for name in self._names
        )

    def runs(self, flow, sources: dict, until: Optional[Timestamp] = None) -> Iterator:
        """``event_runs(flow, merge_source_events(sources, until))``,
        read off this history unless ``until`` cuts it: a cut replay
        merges and groups its prefix afresh."""
        if until is not None:
            return event_runs(flow, merge_source_events(sources, until))
        key = tuple((name, tvr, tvr.event_count) for name, tvr in sources.items())
        if key != self._key:  # (a relation compares by identity)
            self._key, self._names, self._shapes = key, list(sources), {}
            self._events = [tvr.events() for tvr in sources.values()]
        names, lists = self._names, self._events
        shape = self.shape(flow)
        table = self._shapes.get(shape)
        if table is None:
            table = self._shapes[shape] = self._group(flow)
        quads = iter(table)
        return (
            (stop, lists[source][begin:end], names[source])
            for source, begin, end, stop in zip(quads, quads, quads, quads)
        )

    def _group(self, flow) -> array:
        """One merge and one :func:`event_runs` pass over the whole
        history, kept as the run table of ``flow``'s shape."""
        names = self._names
        merged = merge_events(names, self._events)
        index = {name: source for source, name in enumerate(names)}
        read = [0] * len(names)  # events of each source consumed so far
        table = array("q")
        start = 0
        for stop, run, name in event_runs(flow, merged):
            source = index[name]
            begin = read[source]
            table.extend((source, begin, begin + len(run), stop))
            if stop - start == len(run):
                read[source] += len(run)
            else:  # the run absorbed events of unscanned sources
                for _, other in merged[start:stop]:
                    read[index[other]] += 1
            start = stop
        return table


class RecordedSources(dict):
    """An engine's recorded sources by lower-case name, carrying the
    :class:`PreparedHistory` that replays of them read — owned by the
    engine through this mapping, and gone with it.  Registering a source
    forgets the history, which may hold the one it replaces."""

    __slots__ = ("history",)

    def __init__(self) -> None:
        super().__init__()
        self.history = PreparedHistory()

    def __setitem__(self, name: str, tvr) -> None:
        super().__setitem__(name, tvr)
        self.history.forget()
