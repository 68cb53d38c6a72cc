"""Physical operator protocol.

Operators process *changelogs*: every data message is a
:class:`~repro.core.changelog.Change` (an insert or retract of one row
occurrence), mirroring how Flink's retraction streams drive its SQL
runtime (Appendix B.2.3).  Watermarks flow as separate control
messages.

The contract:

* ``on_open`` runs once before any input and may emit initial rows
  (e.g. the empty-input row of a global aggregate).
* ``on_batch(port, changes)`` consumes a run of same-instant changes
  on an input port and returns the resulting output changes, in order.
  It is where an operator's row transition is written — **once**.
  ``on_change(port, change)`` is the same transition for a single
  change; every concrete operator overrides exactly one of the two and
  the base class derives the other (see :meth:`Operator.on_change`).
* ``on_watermark(port, value, ptime)`` records an input watermark
  advance and returns ``(changes, output_watermark)`` — the changes the
  advance triggered plus the operator's new output watermark (``None``
  if unchanged).  Output watermarks must be monotonic; multi-input
  operators merge by minimum (the hold-back rule of Section 5).
* ``state_size()`` reports retained row count, powering the paper's
  "reasoning about the size of query state" lesson and the state
  benchmarks.

Observability is part of the contract, not an add-on: every operator
carries a counter block and the uniform ``late_dropped``/
``expired_rows`` counters.  Operators do not count their own rows — the
executor calls the ``on_*`` hooks directly and counts each produced
batch once, where it crosses the edge to its consumers (the operator's
generated fan-out, :func:`~repro.exec.codegen.fanout_kernel`).  ``metrics()`` assembles the
whole block, so downstream reporting iterates operators instead of
maintaining per-class ``isinstance`` allowlists (the pattern that
silently lost OVER and MATCH_RECOGNIZE late drops).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ...core.changelog import Change
from ...core.schema import Schema
from ...core.times import MIN_TIMESTAMP, Timestamp
from ...core.watermark import merge_watermarks
from ...obs.metrics import OperatorCounters, watermark_lag

if TYPE_CHECKING:  # pragma: no cover
    from ..timers import TimerQueue

__all__ = ["Operator"]


class Operator:
    """Base class for physical operators."""

    #: Operators that consume :class:`~repro.core.colbatch.ColumnarBatch`
    #: payloads directly set this True and implement :meth:`on_cols`.
    #: For everything else the executor converts the batch back to rows
    #: at the operator boundary.
    supports_columnar = False

    #: What becomes of a columnar input's per-row sequence numbers
    #: (``ColumnarBatch.seqs``): an operator that *carries* them derives
    #: its output batch's vector the way it derives ``ptimes``; one that
    #: *ships* them emits rows that hold them as data (the partial
    #: aggregate's payload).  The sharded runtime lets a run span
    #: sequence gaps only when every operator below each root carries
    #: and the root ships (``Dataflow.run_split_reason``).
    carries_seqs = False
    ships_seqs = False

    def __init__(self, schema: Schema, arity: int):
        self.schema = schema
        self.arity = arity
        self._input_wms: list[Timestamp] = [MIN_TIMESTAMP] * arity
        #: the merged watermark over all input ports, kept as the ports
        #: move (late-data cutoffs read it per batch or per row)
        self.input_watermark: Timestamp = MIN_TIMESTAMP
        self._output_wm: Timestamp = MIN_TIMESTAMP
        self._timers: Optional["TimerQueue"] = None
        self.counters = OperatorCounters(arity)
        #: rows rejected because the watermark already declared their
        #: position complete; every operator has the counter, whether or
        #: not it ever drops.
        self.late_dropped = 0
        #: state rows purged (or arrivals ignored) because the watermark
        #: proved them unreachable.
        self.expired_rows = 0

    # -- processing-time timers -----------------------------------------------

    def bind_timers(self, timers: "TimerQueue") -> None:
        """Connect this operator to its dataflow's timer queue."""
        self._timers = timers

    def register_timer(self, when: Timestamp) -> None:
        """Request an ``on_timer`` callback at processing time ``when``.

        Timers power operators whose output changes with the mere
        passage of processing time — the time-progressing expressions of
        Section 8 — rather than with new input.
        """
        if self._timers is not None:
            self._timers.schedule(when, self)

    def on_timer(self, when: Timestamp) -> list[Change]:
        """Handle a timer firing; returns emitted changes."""
        return []

    # -- data path ----------------------------------------------------------

    def on_open(self) -> list[Change]:
        """Emit any initial output (before the first input arrives)."""
        return []

    # One transition per operator.  A concrete operator overrides
    # exactly one of ``on_change`` / ``on_batch`` and inherits the
    # other from here: hot operators write their transition as a batch
    # loop (``on_change`` is then a batch of one), cold ones write it
    # per change (``on_batch`` then loops it).  Either way the row
    # transition exists once, so the batch output is *by construction*
    # the ordered concatenation of the per-change outputs — the
    # invariant the executor's byte-identical batching mode rests on.
    # (Overriding neither recurses; ``tests/test_api_surface.py``
    # rejects a class body that defines both.)

    def on_change(self, port: int, change: Change) -> list[Change]:
        """Consume one change: a batch of one."""
        return self.on_batch(port, (change,))

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        """Consume a run of same-instant changes on one port."""
        on_change = self.on_change
        out: list[Change] = []
        for change in changes:
            out.extend(on_change(port, change))
        return out

    def on_cols(self, port: int, batch):
        """Consume a columnar batch; only called when
        ``supports_columnar`` is True.  May return either a
        :class:`~repro.core.colbatch.ColumnarBatch` or a row list —
        the executor handles both payload encodings downstream."""
        raise NotImplementedError

    def process_watermark(
        self, port: int, value: Timestamp, ptime: Timestamp
    ) -> tuple[list[Change], Optional[Timestamp]]:
        """``on_watermark``, counting output-watermark advances (what
        the advance *emits* is counted where it crosses the edge)."""
        changes, out_wm = self.on_watermark(port, value, ptime)
        if out_wm is not None:
            self.counters.wm_advances += 1
        return changes, out_wm

    # -- watermark path -------------------------------------------------------

    def on_watermark(
        self, port: int, value: Timestamp, ptime: Timestamp
    ) -> tuple[list[Change], Optional[Timestamp]]:
        """Record an input watermark; default merges inputs by minimum."""
        self._input_wms[port] = value
        merged = self.input_watermark = merge_watermarks(self._input_wms)
        changes = self._on_watermark_advanced(merged, ptime)
        if merged > self._output_wm:
            self._output_wm = merged
            return changes, merged
        return changes, None

    def _on_watermark_advanced(
        self, merged: Timestamp, ptime: Timestamp
    ) -> list[Change]:
        """Hook for watermark-triggered work (state GC, session closes)."""
        return []

    @property
    def output_watermark(self) -> Timestamp:
        return self._output_wm

    # -- checkpointing ------------------------------------------------------------

    def state_snapshot(self) -> dict:
        """This operator's state, as a picklable structure.

        **Snapshot by serialization**: the result holds *references*
        into live state, not copies.  It is valid only until the
        operator next sees input, so every caller serializes it before
        returning (``Dataflow.checkpoint``, and ``ShardedDataflow``'s
        for its combine flows, pickle it on the spot) — the pickle is
        the copy, and the only one.  The base snapshot covers the
        watermark bookkeeping; stateful subclasses extend it.  Together with the executor's
        own bookkeeping this gives consistent stop-and-resume, the
        checkpoint/recovery capability Appendix B.2.1 describes for
        Flink.
        """
        return {
            "input_wms": self._input_wms,
            "output_wm": self._output_wm,
            "counters": self.counters.snapshot(),
            "late_dropped": self.late_dropped,
            "expired_rows": self.expired_rows,
        }

    def state_restore(self, snapshot: dict) -> None:
        """Adopt state captured by :meth:`state_snapshot`.

        The operator takes **ownership** of what it is handed (freshly
        unpickled objects, in every caller) and mutates it in place
        from then on; restoring one decoded snapshot into two
        operators would alias their state.
        """
        self._input_wms = snapshot["input_wms"]
        self.input_watermark = merge_watermarks(self._input_wms)
        self._output_wm = snapshot["output_wm"]
        self.counters.restore(snapshot["counters"])
        self.late_dropped = snapshot["late_dropped"]
        self.expired_rows = snapshot["expired_rows"]

    # -- introspection ---------------------------------------------------------

    def state_size(self) -> int:
        """Number of row occurrences retained in operator state."""
        return 0

    def metrics(self) -> dict:
        """The operator's full metric block, uniformly shaped.

        Standard keys are identical for every operator; subclasses
        append class-specific gauges via :meth:`_extra_metrics`.
        """
        counters = self.counters
        block = {
            "operator": self.name(),
            "type": type(self).__name__,
            "rows_in": list(counters.rows_in),
            "retracts_in": list(counters.retracts_in),
            "rows_out": counters.rows_out,
            "retracts_out": counters.retracts_out,
            "late_dropped": self.late_dropped,
            "expired_rows": self.expired_rows,
            "state_rows": self.state_size(),
            "peak_state_rows": counters.peak_state_rows,
            "watermark_lag": watermark_lag(self.input_watermark, self._output_wm),
            "wm_advances": counters.wm_advances,
            "changes_coalesced": counters.changes_coalesced,
        }
        block.update(self._extra_metrics())
        return block

    def _extra_metrics(self) -> dict:
        """Class-specific gauges merged into :meth:`metrics`."""
        return {}

    def name(self) -> str:
        return type(self).__name__
