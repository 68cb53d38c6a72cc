"""Uniform per-operator metrics.

Section 5 of the paper asks engines to "give the user feedback about
the state being consumed, relating the physical computation back to
their query"; the operational follow-ups (*Lessons Learned from Efforts
to Standardize Streaming In SQL*, arXiv:2311.03476) sharpen that into a
rule: a streaming engine you cannot observe is an engine you cannot
tune.  This module is the engine's observability spine:

* :class:`OperatorCounters` — the mutable counter block every physical
  operator carries.  Rows and retractions are counted in one place,
  the producing operator's generated fan-out
  (:func:`repro.exec.codegen.fanout_kernel`): once per produced batch,
  where it crosses an edge of the graph, for the producer and every
  consumer at once.  No operator can opt out and no executor-side
  ``isinstance`` allowlist can lose a counter (the bug that motivated
  this layer: OVER and MATCH_RECOGNIZE late drops silently vanished
  from ``RunResult.late_dropped``).
* :class:`MetricsRegistry` — the executor-side view over one dataflow's
  operators; swept per ``process()`` step, over the operators that keep
  state, to keep per-operator state peaks current.
* :class:`MetricsReport` — the assembled, renderable report attached to
  every :class:`~repro.exec.executor.RunResult`; sharded runs merge the
  per-shard reports into per-operator totals plus a per-shard breakdown
  that surfaces routing skew.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

from ..core.times import MAX_TIMESTAMP, MIN_TIMESTAMP
from .telemetry import RunTelemetry

if TYPE_CHECKING:  # pragma: no cover
    from ..exec.operators.base import Operator

__all__ = [
    "OperatorCounters",
    "MetricsRegistry",
    "MetricsReport",
    "RecoveryStats",
    "merge_shard_reports",
    "watermark_lag",
]


@dataclass
class RecoveryStats:
    """What fault recovery cost one run: restarts, replay, dedup.

    Attached to the :class:`MetricsReport` of supervised sharded runs
    (zero-valued when no fault fired, ``None`` for serial runs):

    * ``shard_restarts`` — shard workers restarted by the supervisor;
    * ``rows_replayed`` — row events re-processed after restoring from
      a checkpoint (the replay tail a tighter checkpoint interval
      shrinks);
    * ``dedup_drops`` — re-emitted output changes dropped by the
      sequence-number dedup before the merge stage;
    * ``wm_regressions`` — restarted-shard watermark values the
      frontier clamped instead of letting the merged minimum regress.
    """

    shard_restarts: int = 0
    rows_replayed: int = 0
    dedup_drops: int = 0
    wm_regressions: int = 0

    @property
    def any(self) -> bool:
        return bool(
            self.shard_restarts
            or self.rows_replayed
            or self.dedup_drops
            or self.wm_regressions
        )

    def merge(self, other: "RecoveryStats") -> "RecoveryStats":
        self.shard_restarts += other.shard_restarts
        self.rows_replayed += other.rows_replayed
        self.dedup_drops += other.dedup_drops
        self.wm_regressions += other.wm_regressions
        return self

    def as_dict(self) -> dict:
        return {
            "shard_restarts": self.shard_restarts,
            "rows_replayed": self.rows_replayed,
            "dedup_drops": self.dedup_drops,
            "wm_regressions": self.wm_regressions,
        }

    def render(self) -> str:
        return (
            f"recovery: shard_restarts={self.shard_restarts} "
            f"rows_replayed={self.rows_replayed} "
            f"dedup_drops={self.dedup_drops} "
            f"wm_regressions={self.wm_regressions}"
        )


class OperatorCounters:
    """Rows-in/out bookkeeping for one operator.

    ``rows_in``/``retracts_in`` are per input port (inserts are
    ``rows_in - retracts_in``); outputs are single totals because an
    operator has one output.  A plain block of numbers: rows and
    retractions are written by the producer's generated fan-out
    (:func:`~repro.exec.codegen.fanout_kernel`),
    ``peak_state_rows`` by the executor's per-step registry sweep (not
    per change, keeping the data path free of repeated ``state_size()``
    scans).
    ``changes_coalesced`` counts what intra-instant compaction dropped
    from this operator's output *before* it crossed the edge, so
    ``rows_out`` means "changes this operator sent downstream".
    """

    __slots__ = ("rows_in", "retracts_in", "rows_out", "retracts_out",
                 "peak_state_rows", "wm_advances", "changes_coalesced")

    def __init__(self, arity: int):
        self.rows_in = [0] * arity
        self.retracts_in = [0] * arity
        self.rows_out = 0
        self.retracts_out = 0
        self.peak_state_rows = 0
        self.wm_advances = 0
        self.changes_coalesced = 0

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "rows_in": list(self.rows_in),
            "retracts_in": list(self.retracts_in),
            "rows_out": self.rows_out,
            "retracts_out": self.retracts_out,
            "peak_state_rows": self.peak_state_rows,
            "wm_advances": self.wm_advances,
            "changes_coalesced": self.changes_coalesced,
        }

    def restore(self, snapshot: dict) -> None:
        self.rows_in = list(snapshot["rows_in"])
        self.retracts_in = list(snapshot["retracts_in"])
        self.rows_out = snapshot["rows_out"]
        self.retracts_out = snapshot["retracts_out"]
        self.peak_state_rows = snapshot["peak_state_rows"]
        self.wm_advances = snapshot["wm_advances"]
        self.changes_coalesced = snapshot["changes_coalesced"]


def watermark_lag(input_wm: int, output_wm: int) -> int:
    """How far an operator's output watermark trails its inputs.

    Only meaningful between the sentinels: an input that never advanced
    (or is already complete) has no lag to report.
    """
    if input_wm <= MIN_TIMESTAMP or input_wm >= MAX_TIMESTAMP:
        return 0
    if output_wm <= MIN_TIMESTAMP:
        return 0
    return max(0, input_wm - output_wm)


class MetricsRegistry:
    """The executor's handle on the operators that keep state.

    The executor calls :meth:`observe_state` once per ``process()``
    step: one sweep refreshes the operators' state peaks *and* yields
    the dataflow-wide total the executor tracks for
    ``RunResult.peak_state_rows``.  The sweep walks only the operators
    whose class overrides ``state_size`` — the rest inherit the base
    class's constant 0, which can neither raise a peak nor add to the
    total.
    """

    def __init__(self, operators: Iterable["Operator"]):
        # (imported here: the operator base class imports this module)
        from ..exec.operators.base import Operator

        self._stateful = [
            op for op in operators
            if type(op).state_size is not Operator.state_size
        ]

    def observe_state(self) -> int:
        """Refresh per-operator state peaks; returns the current total."""
        total = 0
        for op in self._stateful:
            size = op.state_size()
            counters = op.counters
            if size > counters.peak_state_rows:
                counters.peak_state_rows = size
            total += size
        return total


# Keys that are identity, not quantity: kept from the first shard when
# merging instead of summed.
_IDENTITY_KEYS = frozenset({"operator", "type", "depth", "leaf", "shared_by"})
# Keys merged by maximum: a gauge over time, not a flow total.
_MAX_KEYS = frozenset({"watermark_lag", "peak_state_rows"})


@dataclass
class MetricsReport:
    """A rendered-or-renderable snapshot of one run's operator metrics.

    ``operators`` holds one dict per physical operator in *pre-order*
    (root first, children indented by ``depth``), so :meth:`render`
    reads like the ``EXPLAIN`` plan annotated with counters.  For
    sharded runs ``shard_count > 1``, each entry carries a ``"shards"``
    per-shard ``rows_in`` breakdown and ``shard_rows`` records rows
    routed per shard (the skew signal).  :attr:`telemetry` is the run's
    latency telemetry (emit-latency and watermark-lag histograms),
    merged over shards for sharded runs.
    """

    operators: list[dict]
    shard_count: int = 1
    shard_rows: list[int] = field(default_factory=list)
    #: the run's telemetry, or the output channel it is read from — so
    #: a report settles the channel's samples when it is read, not
    #: when it is made
    source: Any = field(default=None, repr=False)
    #: recovery accounting for supervised sharded runs (``None`` serial).
    recovery: Optional[RecoveryStats] = None

    @property
    def telemetry(self) -> Optional[RunTelemetry]:
        return getattr(self.source, "telemetry", self.source)

    # -- lookups ---------------------------------------------------------------

    def find(self, name_fragment: str) -> dict:
        """The first operator entry whose name contains ``name_fragment``."""
        for entry in self.operators:
            if name_fragment in entry["operator"] or name_fragment in entry["type"]:
                return entry
        raise KeyError(f"no operator metrics match {name_fragment!r}")

    # -- aggregates -------------------------------------------------------------

    @property
    def totals(self) -> dict:
        """Flow totals summed over every operator."""
        keys = ("rows_out", "retracts_out", "late_dropped", "expired_rows",
                "state_rows", "peak_state_rows", "changes_coalesced")
        out = {key: sum(entry[key] for entry in self.operators) for key in keys}
        out["rows_in"] = sum(
            sum(entry["rows_in"]) for entry in self.operators
        )
        out["retracts_in"] = sum(
            sum(entry["retracts_in"]) for entry in self.operators
        )
        return out

    @property
    def skew(self) -> Optional[dict]:
        """Max/min rows routed per shard, or ``None`` for serial runs."""
        if self.shard_count <= 1 or not self.shard_rows:
            return None
        most, least = max(self.shard_rows), min(self.shard_rows)
        return {
            "max": most,
            "min": least,
            "ratio": (most / least) if least else float("inf"),
        }

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """The EXPLAIN ANALYZE text: the operator tree with counters."""
        header = (
            "operator metrics"
            if self.shard_count <= 1
            else f"operator metrics (summed over {self.shard_count} shards)"
        )
        lines = [header]
        for entry in self.operators:
            lines.append("  " * (entry["depth"] + 1) + _describe(entry))
        totals = self.totals
        lines.append(
            "totals: rows_in={rows_in} rows_out={rows_out} "
            "late_dropped={late_dropped} expired_rows={expired_rows} "
            "peak_state={peak_state_rows}".format(**totals)
        )
        skew = self.skew
        if skew is not None:
            lines.append(
                f"shard skew: rows routed per shard {self.shard_rows} "
                f"(max={skew['max']}, min={skew['min']})"
            )
        if self.recovery is not None and self.recovery.any:
            lines.append(self.recovery.render())
        if self.telemetry is not None and not self.telemetry.empty:
            lines.append(self.telemetry.render())
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _describe(entry: dict) -> str:
    ins = sum(entry["rows_in"])
    parts = [
        entry["operator"],
        f"rows: in={ins} out={entry['rows_out']}",
    ]
    retracts = sum(entry["retracts_in"]) + entry["retracts_out"]
    if retracts:
        parts.append(
            f"retracts: in={sum(entry['retracts_in'])} "
            f"out={entry['retracts_out']}"
        )
    if entry["late_dropped"]:
        parts.append(f"late_dropped={entry['late_dropped']}")
    if entry["expired_rows"]:
        parts.append(f"expired_rows={entry['expired_rows']}")
    if entry["state_rows"] or entry["peak_state_rows"]:
        parts.append(
            f"state={entry['state_rows']} peak={entry['peak_state_rows']}"
        )
    if entry["watermark_lag"]:
        parts.append(f"wm_lag={entry['watermark_lag']}ms")
    if entry.get("wm_advances"):
        parts.append(f"wm_advances={entry['wm_advances']}")
    if entry.get("changes_coalesced"):
        parts.append(f"coalesced={entry['changes_coalesced']}")
    if entry.get("shared_by", 1) >= 2:
        parts.append(f"[shared ×{entry['shared_by']}]")
    for key, value in entry.items():
        if key in _IDENTITY_KEYS or key in _MAX_KEYS or key in (
            "rows_in", "retracts_in", "rows_out", "retracts_out",
            "late_dropped", "expired_rows", "state_rows", "shards",
            "wm_advances", "changes_coalesced",
        ):
            continue
        parts.append(f"{key}={value}")
    return "  ".join(parts)


def _merge_values(key: str, values: list):
    if key in _MAX_KEYS:
        return max(values)
    first = values[0]
    if isinstance(first, list):
        return [sum(column) for column in zip(*values)]
    if isinstance(first, (int, float)):
        return sum(values)
    return first


def merge_shard_reports(reports: Sequence[MetricsReport]) -> MetricsReport:
    """Aggregate per-shard reports into per-operator totals + breakdowns.

    Every shard compiles the same plan, so reports align index by
    index.  Flow counters sum, gauges (peaks, watermark lag) take the
    maximum, and each merged entry keeps a ``"shards"`` list of rows-in
    totals so skew is visible per operator, not just per run.  Rows
    routed per shard are measured at the scan leaves — exactly what the
    hash router distributed.
    """
    if not reports:
        return MetricsReport(operators=[])
    telemetry = RunTelemetry.merged(
        report.telemetry for report in reports if report.telemetry is not None
    )
    if len(reports) == 1:
        only = reports[0]
        return MetricsReport(
            operators=[dict(entry) for entry in only.operators],
            shard_count=1,
            shard_rows=[_routed_rows(only)],
            source=telemetry,
        )
    merged: list[dict] = []
    for entries in zip(*(report.operators for report in reports)):
        entry: dict = {}
        for key in entries[0]:
            if key in _IDENTITY_KEYS:
                entry[key] = entries[0][key]
            else:
                entry[key] = _merge_values(key, [e[key] for e in entries])
        entry["shards"] = [sum(e["rows_in"]) for e in entries]
        merged.append(entry)
    return MetricsReport(
        operators=merged,
        shard_count=len(reports),
        shard_rows=[_routed_rows(report) for report in reports],
        source=telemetry,
    )


def _routed_rows(report: MetricsReport) -> int:
    """Rows delivered to one shard's scan leaves (its routed share)."""
    return sum(
        sum(entry["rows_in"])
        for entry in report.operators
        if entry.get("leaf")
    )
