"""Run-level latency telemetry: when did results arrive, and how late.

The counters in :mod:`repro.obs.metrics` answer *how much* flowed; this
module answers *when*.  Two distributions are recorded at the dataflow
root, where a change's processing time is final:

* **emit latency** — the change's ``ptime`` minus the row's event-time
  completion timestamp (the window end for windowed queries).  Under
  the paper's materialization extensions this is exactly the
  latency-for-completeness knob: ``EMIT STREAM`` emits speculatively
  (early, counted in ``early_emits``), ``EMIT AFTER WATERMARK`` waits
  out the watermark and pays the latency measured here.
* **watermark lag** — the change's ``ptime`` minus the root output
  watermark at the instant of emission: how far completeness trails
  the data.

Everything a sample needs is in the output's changelog (each change's
``ptime`` and completion columns) plus the root watermark, which is
constant between two watermark steps of that output — so nothing is
recorded per emission.  The samples are *derived* from the log, a
watermark step's worth at a time, when the watermark is about to move,
when the log's tail is about to leave, or when somebody reads the
telemetry (``OutputChannel.settle`` in :mod:`repro.exec.executor`).

Both are :class:`~repro.obs.histogram.Histogram`\\ s, so per-shard
telemetry merges into exactly the serial distribution (watermarks are
broadcast and each root change is produced by exactly one shard).

:func:`render_dashboard` is the one-screen live view behind the
shell's ``\\watch`` command.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..core.times import MAX_TIMESTAMP, MIN_TIMESTAMP, Timestamp, fmt_duration, fmt_time
from .histogram import Histogram

__all__ = ["RunTelemetry", "render_dashboard"]


class RunTelemetry:
    """The latency histograms of one dataflow run (or shard thereof)."""

    __slots__ = ("emit_latency", "watermark_lag", "early_emits")

    def __init__(self) -> None:
        self.emit_latency = Histogram()
        self.watermark_lag = Histogram()
        self.early_emits = 0

    # -- recording (the one method; see ``OutputChannel.settle``) --------------

    def record_emit_run(
        self,
        rows: Sequence[tuple],
        ptimes: Sequence[Timestamp],
        completion: Optional[Sequence[int]],
        root_watermark: Timestamp,
    ) -> None:
        """Record a run of root changes emitted at one watermark state,
        given as their parallel row and ptime vectors (a changelog's
        at-rest form: no ``Change`` is needed).

        One emit-latency sample per change whose row carries a finite
        event-time completion bound (the max over ``completion``, the
        plan's completion column indices; outer joins may leave NULLs
        there, and a row with no bound yields no sample), negative ones
        also counted in ``early_emits``; one watermark-lag sample per
        change while ``root_watermark`` — the root output watermark
        when the run was emitted — is finite.  Histograms are
        order-insensitive, so recording a run at once equals recording
        its changes one by one.
        """
        if completion is not None:
            latencies = []
            early = 0
            if len(completion) == 1:
                (ci,) = completion
                lo, hi = MIN_TIMESTAMP, MAX_TIMESTAMP
                lat_append = latencies.append
                for row, ptime in zip(rows, ptimes):
                    bound = row[ci]
                    if isinstance(bound, int) and lo < bound < hi:
                        latency = ptime - bound
                        if latency < 0:
                            early += 1
                        lat_append(latency)
            else:
                for row, ptime in zip(rows, ptimes):
                    bound = None
                    for i in completion:
                        v = row[i]
                        if isinstance(v, int) and (bound is None or v > bound):
                            bound = v
                    if bound is not None and _is_finite(bound):
                        latency = ptime - bound
                        if latency < 0:
                            early += 1
                        latencies.append(latency)
            if latencies:
                self.emit_latency.observe_many(latencies)
                self.early_emits += early
        if _is_finite(root_watermark):
            # (a burst shares its instant: few distinct lags to tally)
            self.watermark_lag.observe_many(
                [ptime - root_watermark for ptime in ptimes]
            )

    # -- merging ---------------------------------------------------------------

    def merge(self, other: "RunTelemetry") -> "RunTelemetry":
        self.emit_latency.merge(other.emit_latency)
        self.watermark_lag.merge(other.watermark_lag)
        self.early_emits += other.early_emits
        return self

    @classmethod
    def merged(cls, parts: Iterable["RunTelemetry"]) -> "RunTelemetry":
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    @property
    def empty(self) -> bool:
        return not (self.emit_latency.count or self.watermark_lag.count)

    def summary(self) -> dict:
        """JSON-ready summary: both histograms plus the early-emit count."""
        return {
            "emit_latency": self.emit_latency.summary(),
            "watermark_lag": self.watermark_lag.summary(),
            "early_emits": self.early_emits,
        }

    def render(self) -> str:
        """The EXPLAIN ANALYZE latency section (empty string if no samples)."""
        lines = []
        if self.emit_latency.count:
            line = f"emit latency: {_hist_line(self.emit_latency)}"
            if self.early_emits:
                line += f"  early={self.early_emits}"
            lines.append(line)
        if self.watermark_lag.count:
            lines.append(f"watermark lag: {_hist_line(self.watermark_lag)}")
        return "\n".join(lines)

    # -- checkpointing -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "emit_latency": self.emit_latency.snapshot(),
            "watermark_lag": self.watermark_lag.snapshot(),
            "early_emits": self.early_emits,
        }

    def restore(self, snapshot: dict) -> None:
        self.emit_latency.restore(snapshot["emit_latency"])
        self.watermark_lag.restore(snapshot["watermark_lag"])
        self.early_emits = snapshot["early_emits"]

    def __repr__(self) -> str:
        return (
            f"RunTelemetry(emit={self.emit_latency!r}, "
            f"lag={self.watermark_lag!r}, early={self.early_emits})"
        )


def _is_finite(ts: Timestamp) -> bool:
    return MIN_TIMESTAMP < ts < MAX_TIMESTAMP


def _hist_line(histogram: Histogram) -> str:
    return (
        f"n={histogram.count} "
        f"p50={fmt_duration(histogram.percentile(0.50))} "
        f"p95={fmt_duration(histogram.percentile(0.95))} "
        f"p99={fmt_duration(histogram.percentile(0.99))} "
        f"max={fmt_duration(histogram.max)}"
    )


# ---------------------------------------------------------------------------
# the live dashboard (\watch)
# ---------------------------------------------------------------------------

_BAR_WIDTH = 24


def render_dashboard(
    *,
    title: str,
    events_done: int,
    events_total: int,
    rows_emitted: int,
    elapsed: float,
    watermark: Timestamp,
    telemetry: RunTelemetry,
    shard_rows: Optional[Sequence[int]] = None,
    recovery=None,
    coalesced: int = 0,
    tenants: Optional[Sequence[dict]] = None,
    final: bool = False,
) -> str:
    """One refreshing screen of a running query, as plain text.

    Used by the shell's ``\\watch`` command: every frame is a full
    render, so a terminal redraw is "clear + print" and a test is just
    a substring assertion on the returned string.  ``recovery`` — a
    :class:`~repro.obs.metrics.RecoveryStats` — adds a restart line
    when any shard worker recovered during the run.  ``coalesced`` — the
    dataflow's ``changes_coalesced()`` total — adds a compaction line
    when intra-instant coalescing dropped any changes.  ``tenants`` —
    rows of ``{"tenant", "queries", "deltas", "p99_emit_ms"}`` — adds a
    per-tenant service section when a standing-query service shares the
    engine (built from the per-query labeled histograms).
    """
    width = 62
    rule = "=" * width
    state = "done" if final else "running"
    lines = [rule, f"watch [{state}]  {_truncate(title, width - 18)}", rule]

    frac = (events_done / events_total) if events_total else 1.0
    bar = _bar(frac, _BAR_WIDTH)
    lines.append(
        f"events    [{bar}] {events_done}/{events_total} ({frac * 100:.0f}%)"
    )
    rate = (events_done / elapsed) if elapsed > 0 else 0.0
    out_rate = (rows_emitted / elapsed) if elapsed > 0 else 0.0
    lines.append(
        f"rows      {rows_emitted} emitted   "
        f"{rate:,.0f} events/sec   {out_rate:,.0f} rows/sec"
    )
    lines.append(f"watermark {fmt_time(watermark)}")
    lag = telemetry.watermark_lag
    if lag.count:
        lines.append(f"lag       {_hist_line(lag)}")
    emit = telemetry.emit_latency
    if emit.count:
        line = f"emit lat  {_hist_line(emit)}"
        if telemetry.early_emits:
            line += f"  early={telemetry.early_emits}"
        lines.append(line)
    if shard_rows:
        most = max(shard_rows) or 1
        lines.append(f"shards    {len(shard_rows)} (rows routed per shard)")
        for index, rows in enumerate(shard_rows):
            bar = "#" * max(1 if rows else 0, round(_BAR_WIDTH * rows / most))
            lines.append(f"  s{index:<3} {bar:<{_BAR_WIDTH}} {rows}")
    if tenants:
        lines.append(f"tenants   {len(tenants)} with standing queries")
        for row in tenants:
            p99 = row.get("p99_emit_ms")
            p99_text = fmt_duration(p99) if p99 is not None else "-"
            lines.append(
                f"  {_truncate(str(row['tenant']), 12):<12} "
                f"{row['queries']} queries   {row['deltas']} deltas   "
                f"p99 emit {p99_text}"
            )
    if coalesced:
        lines.append(f"coalesce  {coalesced} changes compacted away")
    if recovery is not None and recovery.any:
        lines.append(
            f"recovery  {recovery.shard_restarts} restart(s)   "
            f"{recovery.rows_replayed} rows replayed   "
            f"{recovery.dedup_drops} dedup drops"
        )
    lines.append(rule)
    return "\n".join(lines)


def _bar(fraction: float, width: int) -> str:
    filled = round(max(0.0, min(1.0, fraction)) * width)
    return "#" * filled + "." * (width - filled)


def _truncate(text: str, limit: int) -> str:
    flat = " ".join(text.split())
    if len(flat) <= limit:
        return flat
    return flat[: limit - 3] + "..."
