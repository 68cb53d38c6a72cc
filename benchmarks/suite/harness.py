"""Measurement plumbing shared by every workload.

Statistics, the host-speed meter every timing is normalised by, the
span tracer, the pass/fail ledger behind ``attempted``/``failed``,
replay helpers built on the public incremental API, and the changelog
digest the oracles compare.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from typing import Callable, Iterator

from repro import RowEvent, TimeVaryingRelation

__all__ = [
    "Host",
    "Ledger",
    "Tracer",
    "NULL_TRACER",
    "bursts",
    "by_layer",
    "changelog_digest",
    "feed",
    "geomean",
    "merged_events",
    "percentile",
    "repeat_for",
]

now = time.perf_counter


# -- statistics --------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by nearest rank."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- host speed --------------------------------------------------------------


class Host:
    """Pins the measuring thread and meters how fast the host is right now.

    The boxes this suite runs on change speed under it: a vCPU flips
    between plateaus 1.3x (at times 1.8x) apart every few seconds,
    each vCPU on its own, so whole runs land in one state or the other
    and raw timings of identical code are bimodal — their quartiles
    sit up to 25 % apart however long a run measures.  So every timed
    sample is bracketed by a fixed pure-Python loop whose *thread CPU
    time* (immune to time-sharing, not to a slow core) is compared with
    ``reference_s``, and the sample is divided by that factor: metrics
    read as they would on a host running at the reference speed.

    The loop has to run on the core that does the work, so the process
    pins itself (and the processes it starts) to one CPU, ``home``.
    """

    def __init__(self, reference_s: float, spin: int):
        self.reference_s = reference_s
        self.spin = spin
        self.factors: list[float] = []  # every sample, for the report
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.home = self.cpus[:1]
        self.pin(self.home)

    def pin(self, cpus: list[int]) -> None:
        """Restrict the calling thread (and processes it starts) to ``cpus``."""
        if cpus:
            try:
                os.sched_setaffinity(0, cpus)
            except OSError:
                self.cpus = self.home = []  # not allowed here: run unpinned

    def _spin(self) -> float:
        start = time.thread_time()
        x = 0
        for i in range(self.spin):
            x += i * i
        return time.thread_time() - start

    def quick_factor(self) -> float:
        """One spin on the pinned CPU: short enough for the gaps of an
        open loop, noisier than :meth:`factor`."""
        factor = self._spin() / self.reference_s
        self.factors.append(factor)
        return factor

    def factor(self) -> float:
        """Slowness of the pinned CPU relative to the reference: 1.0 at
        reference speed, 1.3 when the same work takes 1.3x as long."""
        factor = sorted(self._spin() for _ in range(3))[1] / self.reference_s
        self.factors.append(factor)
        return factor

    def stopwatch(self) -> "_Stopwatch":
        """``with host.stopwatch() as watch: ...`` then ``watch.seconds``:
        the block's wall time at reference host speed."""
        return _Stopwatch(self)


class _Stopwatch:
    __slots__ = ("host", "before", "start", "raw_seconds", "seconds")

    def __init__(self, host: Host):
        self.host = host

    def __enter__(self) -> "_Stopwatch":
        self.before = self.host.factor()
        self.start = now()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_seconds = now() - self.start
        after = self.host.factor()
        self.seconds = self.raw_seconds * 2.0 / (self.before + after)


def repeat_for(budget_s: float, fn: Callable[[], object], min_reps: int = 3) -> list:
    """Call ``fn`` until ``budget_s`` is spent, at least ``min_reps``
    times; returns what each call returned."""
    deadline = now() + budget_s
    out = []
    while len(out) < min_reps or now() < deadline:
        out.append(fn())
    return out


# -- pass/fail ledger --------------------------------------------------------


class Ledger:
    """Operations attempted and failed: the inputs of ``failed_share``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{what} ({failed} of {attempted})")


# -- spans -------------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer.spans[self.index][2] = now()
        tracer.stack.pop()


class Tracer:
    """In-memory spans around the suite's calls into each layer.

    A span is ``[name, start, end, parent, request]``: ``parent`` is the
    index of the enclosing span (-1 for a request's root) and
    ``request`` the identifier all spans of one request share.  The
    layer of a span is its name up to the first dot.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, request) -> _Span:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.stack.append(index)
        self.spans.append([name, now(), 0.0, parent, request])
        return _Span(self, index)

    def self_times(self, since: int = 0, until=None) -> dict[str, float]:
        """Seconds of self time per span name (duration minus children),
        over ``spans[since:until]`` — a range that holds whole requests."""
        spans = self.spans[since:until]
        own = [span[2] - span[1] for span in spans]
        for span in spans:
            if span[3] >= 0:
                own[span[3] - since] -= span[2] - span[1]
        out: dict[str, float] = {}
        for span, seconds in zip(spans, own):
            out[span[0]] = out.get(span[0], 0.0) + seconds
        return out


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


class _NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str, request) -> _NullSpan:
        return self._span


NULL_TRACER = _NullTracer()


def by_layer(self_times: dict[str, float]) -> dict[str, float]:
    """Fold per-span-name self times into per-layer totals."""
    out: dict[str, float] = {}
    for name, seconds in self_times.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


# -- replay through the public incremental API -------------------------------


def merged_events(streams: dict[str, TimeVaryingRelation]) -> list[tuple]:
    """``(event, source)`` pairs in the replay order the engine documents:
    by processing time, ties by source registration then arrival order
    (a stable sort over the per-source concatenation)."""
    out = [(e, name) for name, tvr in streams.items() for e in tvr.events()]
    out.sort(key=lambda pair: pair[0].ptime)
    return out


def bursts(events: list[tuple], cap: int) -> Iterator[tuple[str, list]]:
    """Group a replay order into micro-batches: consecutive row events of
    one source and one processing instant, at most ``cap`` long."""
    i, n = 0, len(events)
    while i < n:
        event, source = events[i]
        j = i + 1
        if isinstance(event, RowEvent):
            ptime = event.ptime
            while (
                j < n
                and j - i < cap
                and events[j][1] == source
                and isinstance(events[j][0], RowEvent)
                and events[j][0].ptime == ptime
            ):
                j += 1
        yield source, [pair[0] for pair in events[i:j]]
        i = j


def feed(flow, events: list[tuple], cap: int) -> None:
    """Drive ``flow`` (``Dataflow`` or ``ShardedDataflow``) over ``events``."""
    batched = hasattr(flow, "process_batch")
    for source, run in bursts(events, cap if batched else 1):
        if len(run) > 1:
            flow.process_batch(run, source)
        else:
            flow.process(run[0], source)


# -- oracle ------------------------------------------------------------------


def changelog_digest(changes, watermark_pairs=()) -> str:
    """sha256 over a changelog (kind, values, ptime — which fix ``undo``
    and ``ver``) and, for a finished run, its watermark track."""
    h = hashlib.sha256()
    for change in changes:
        h.update(repr((change.kind.value, change.values, change.ptime)).encode())
    h.update(repr(list(watermark_pairs)).encode())
    return h.hexdigest()
