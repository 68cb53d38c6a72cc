"""The public engine facade.

:class:`StreamEngine` owns a catalog of time-varying relations (streams
and tables), a function registry, and the plan/execute pipeline::

    engine = StreamEngine(config=ExecutionConfig(parallelism=4))
    engine.register_stream("Bid", bid_tvr)
    query = engine.query("SELECT ... EMIT STREAM AFTER WATERMARK")
    query.table(at="8:21")      # Listing 12 style point-in-time view
    query.stream(until="8:21")  # Listing 13 style changelog view

Both renderings come from one execution of the query as a time-varying
relation — the paper's stream/table duality made literal.

All execution knobs travel in one frozen :class:`~repro.config.ExecutionConfig`,
accepted at three layers with *call-site > engine > defaults* precedence::

    engine = StreamEngine(config=ExecutionConfig(parallelism=4))
    query.run()                                      # engine's config
    query.run(config=ExecutionConfig(backend="sync"))  # override one field
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from .config import ExecutionConfig, warn_coalesce_emit_stream
from .core.emit import EmitSpec
from .core.errors import ValidationError
from .core.relation import Relation
from .core.schema import Schema, SqlType
from .core.times import MAX_TIMESTAMP, Timestamp, t
from .core.tvr import TimeVaryingRelation
from .exec.executor import Dataflow, RunResult
from .exec.history import RecordedSources
from .exec.materialize import (
    DeltaChange,
    StreamChange,
    delta_view,
    stream_schema,
    stream_view,
    table_view,
)
from .obs.export import TelemetryExporter, make_exporter
from .plan.logical import SortNode
from .plan.optimizer import optimize
from .plan.partition import PartitionDecision, analyze_partitioning
from .plan.physical import PhysicalDecision, plan_physical
from .plan.planner import Catalog, Planner, QueryPlan
from .runtime.build import build_flow
from .sql.functions import FunctionRegistry, default_registry

if TYPE_CHECKING:
    from .runtime.sharded import ShardedDataflow

__all__ = ["StreamEngine", "PreparedQuery"]


def _as_ptime(value: Timestamp | str) -> Timestamp:
    """Accept either a millisecond timestamp or an ``"8:21"`` string."""
    if isinstance(value, str):
        return t(value)
    return value


def _coerce_config(config: Optional[ExecutionConfig]) -> ExecutionConfig:
    if config is None:
        return ExecutionConfig()
    if not isinstance(config, ExecutionConfig):
        raise ValidationError(
            f"config must be an ExecutionConfig, got {config!r}"
        )
    return config


class StreamEngine:
    """A streaming SQL engine over time-varying relations.

    ``config`` — an :class:`~repro.config.ExecutionConfig` — sets this
    engine's execution defaults; any field left unset falls back to the
    library defaults (serial, ``sync`` backend, telemetry recorded
    but not exported, zero lateness, default retry policy, no faults).

    ``config.parallelism`` selects the execution runtime: ``1`` (the
    default) runs every query on the serial
    :class:`~repro.exec.executor.Dataflow`; ``N > 1`` runs
    key-partitionable queries on ``N`` hash-routed shards
    (:mod:`repro.runtime`) under supervision — failed shard workers
    restart from their last checkpoint — with output guaranteed
    identical to the serial engine, falling back to serial for queries
    the partition analyzer rejects.

    ``config.telemetry`` plugs an exporter into every query execution:
    a :class:`~repro.obs.export.TelemetryExporter` instance, or a spec
    string — ``"jsonl:PATH"`` (trace-event log, one JSON object per
    line) or ``"prometheus:PATH"`` (text exposition written after each
    run).  Latency telemetry is always *recorded* (it rides on the
    metrics report); the exporter only controls where it goes.
    """

    def __init__(self, config: Optional[ExecutionConfig] = None) -> None:
        #: the engine-layer config, fully resolved (no unset fields).
        self.config = _coerce_config(config).resolved()
        self.telemetry: Optional[TelemetryExporter] = make_exporter(
            self.config.telemetry
        )
        self._catalog = Catalog()
        self._registry = default_registry()
        #: the recorded sources, and the prepared history replays read
        self._sources: dict[str, TimeVaryingRelation] = RecordedSources()

    @property
    def parallelism(self) -> int:
        """Shard count from the engine config (read-only)."""
        return self.config.parallelism

    @property
    def backend(self) -> str:
        """Shard driver from the engine config (read-only)."""
        return self.config.backend

    # -- catalog ------------------------------------------------------------

    def register_stream(self, name: str, tvr: TimeVaryingRelation) -> None:
        """Register an unbounded stream (a TVR with watermark events)."""
        self._catalog.register(name, tvr.schema, bounded=False)
        self._sources[name.lower()] = tvr

    def register_table(
        self,
        name: str,
        schema_or_tvr: Schema | TimeVaryingRelation,
        rows: Iterable[Sequence[Any]] = (),
    ) -> None:
        """Register a bounded table.

        Accepts either a schema plus rows, or an existing TVR — e.g. a
        recorded stream to be reprocessed "as a table", which the paper
        highlights as a key property of the unified model.
        """
        if isinstance(schema_or_tvr, TimeVaryingRelation):
            tvr = schema_or_tvr
        else:
            tvr = TimeVaryingRelation.from_table(schema_or_tvr, rows)
        self._catalog.register(name, tvr.schema, bounded=True)
        self._sources[name.lower()] = tvr

    def register_view(self, name: str, sql: str) -> None:
        """Register a named view: a query expanded wherever referenced.

        Views map a query pointwise over their input TVRs (Section 6.1),
        so a view over a stream is itself a stream-ready relation:
        query it with any EMIT mode, join it, window it.
        """
        from .sql.parser import parse

        self._catalog.register_view(name, parse(sql))

    def source(self, name: str) -> TimeVaryingRelation:
        """The registered TVR behind ``name``."""
        return self._sources[name.lower()]

    # -- functions ------------------------------------------------------------

    def register_function(
        self,
        name: str,
        impl: Callable[..., Any],
        return_type: SqlType | Callable[[list[SqlType]], SqlType],
        min_args: int,
        max_args: int | None = None,
    ) -> None:
        """Register a user-defined scalar function (e.g. NEXMark's DOLTOEUR)."""
        self._registry.register_scalar(name, impl, return_type, min_args, max_args)

    @property
    def functions(self) -> FunctionRegistry:
        return self._registry

    # -- queries ---------------------------------------------------------------

    def query(
        self, sql: str, config: Optional[ExecutionConfig] = None
    ) -> "PreparedQuery":
        """Parse, validate, plan, and optimize a SQL query.

        ``config`` pins execution settings for this query, overriding
        the engine's config field by field (and overridable again per
        ``run(config=...)`` call).  ``config.allowed_lateness``
        (milliseconds) keeps per-group state alive that long past the
        watermark so late rows update results instead of being dropped —
        the configurable lateness Extension 2 notes real deployments
        need.
        """
        planner = Planner(self._catalog, self._registry)
        plan = optimize(planner.plan_sql(sql))
        return PreparedQuery(self, plan, config=config)

    def explain(
        self, sql: str, mode: str = "logical", verbose: bool = False
    ) -> str:
        """Render one :data:`~repro.explain.EXPLAIN_MODES` view of ``sql``.

        ``logical`` (the default) is the optimized plan plus the runtime
        note; ``physical`` adds the one-phase/two-phase aggregation
        shape; ``analyze`` executes the query over the registered
        sources and annotates the plan with each operator's runtime
        counters (rows in/out, retractions, late drops, expiries, state
        and peak state, watermark lag) — the Section 5 feedback loop,
        one command away.
        """
        return self.query(sql).explain(mode=mode, verbose=verbose)


class PreparedQuery:
    """A planned query, ready to materialize as a table or a stream.

    Holds an optional query-layer :class:`~repro.config.ExecutionConfig`
    whose set fields override the engine's; ``run(config=...)`` overrides
    both for a single execution (call-site > query > engine > defaults).
    """

    def __init__(
        self,
        engine: StreamEngine,
        plan: QueryPlan,
        config: Optional[ExecutionConfig] = None,
    ):
        self._engine = engine
        self.plan = plan
        self.config = config if config is not None else ExecutionConfig()
        self._cached: Optional[RunResult] = None
        self._cached_fingerprint: Optional[tuple] = None
        self._decision: Optional[PartitionDecision] = None

    # -- metadata ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self.plan.schema

    @property
    def emit(self) -> EmitSpec:
        return self.plan.emit

    @property
    def allowed_lateness(self) -> int:
        """The effective lateness window (query over engine over default)."""
        return self._effective().allowed_lateness

    def _effective(
        self, config: Optional[ExecutionConfig] = None
    ) -> ExecutionConfig:
        """Resolve the full precedence chain into a concrete config."""
        layered = self.config
        if config is not None:
            layered = _coerce_config(config).merged_over(layered)
        return layered.merged_over(self._engine.config).resolved()

    def explain(self, mode: str = "logical", verbose: bool = False) -> str:
        """One rendered explain ``mode`` (see :data:`repro.explain.EXPLAIN_MODES`)."""
        from .explain import render_explain  # (loads on the first EXPLAIN)

        return render_explain(self, mode=mode, verbose=verbose)

    def metrics(self):
        """The per-operator :class:`~repro.obs.metrics.MetricsReport`."""
        return self.run().metrics

    def partition_decision(self) -> PartitionDecision:
        """The partition analyzer's verdict for this plan (cached)."""
        if self._decision is None:
            self._decision = analyze_partitioning(self.plan)
        return self._decision

    def physical_decision(
        self, config: Optional[ExecutionConfig] = None
    ) -> PhysicalDecision:
        """The physical planner's one-phase/two-phase verdict.

        Reads the ``two_phase`` knob and the partition decision only,
        so the verdict is the same before and after the query runs.
        """
        return plan_physical(
            self.plan, self.partition_decision(), self._effective(config)
        )

    def stats(self) -> dict:
        """Execution statistics for the current sources.

        Bundles the run's counters with the per-operator state report —
        Section 5's call to relate physical state back to the query —
        both read off the (cached) run, serial or sharded.
        """
        from .exec.state import state_of_run

        result = self.run()
        report = state_of_run(result.metrics)
        return {
            "changes": len(result.changes),
            "late_dropped": result.late_dropped,
            "expired_rows": result.expired_rows,
            "peak_state_rows": result.peak_state_rows,
            "watermark_steps": len(result.watermarks.as_pairs()),
            "state_report": report,
            "metrics": result.metrics,
        }

    # -- execution ------------------------------------------------------------

    def run(self, config: Optional[ExecutionConfig] = None) -> RunResult:
        """Execute the dataflow over all currently registered events.

        ``config`` overrides the query- and engine-level configs for
        this call (field-wise, highest precedence).  The run is cached
        per effective config and transparently refreshed when any
        source has grown since the last execution.
        """
        effective = self._effective(config)
        fingerprint = (effective,) + tuple(
            (name, tvr.last_ptime, tvr.event_count)
            for name, tvr in sorted(self._engine._sources.items())
        )
        if self._cached is None or fingerprint != self._cached_fingerprint:
            self._cached = self._execute(effective)
            self._cached_fingerprint = fingerprint
        return self._cached

    def _resolve_exporter(
        self, effective: ExecutionConfig
    ) -> Optional[TelemetryExporter]:
        """The exporter for one run, reusing the engine's when unchanged.

        Reuse matters for file-backed exporters: a ``jsonl:`` exporter
        truncates its file on construction, so re-resolving the same
        spec per run would wipe the log each time.
        """
        if effective.telemetry == self._engine.config.telemetry:
            return self._engine.telemetry
        return make_exporter(effective.telemetry)

    def _maybe_warn_coalesce(self, effective: ExecutionConfig) -> None:
        """Flag compaction under an explicit EMIT STREAM materialization.

        Compaction keeps every per-instant snapshot but thins the
        changelog, so a query that renders the changelog itself (EMIT
        STREAM's ``undo``/``ver`` columns) sees different rows; warn
        once per process (see docs/API.md).
        """
        if effective.coalesce_updates and self.plan.emit.stream:
            warn_coalesce_emit_stream()

    def _build(self, effective: ExecutionConfig, decision=None):
        """A fresh flow for this query under ``effective``, to be run or
        handed out (which may warn: :meth:`_maybe_warn_coalesce`)."""
        self._maybe_warn_coalesce(effective)
        return self._flow(effective, decision)

    def _flow(self, effective: ExecutionConfig, decision=None):
        """The unrun flow for this query under ``effective``: sharded
        when ``decision`` admits it, else serial (see ``build_flow``).
        No side effects — ``EXPLAIN`` reads the flow a run would use."""
        return build_flow(
            [("main", self.plan)], self._engine._sources, effective, decision
        )

    def _execute(self, effective: ExecutionConfig) -> RunResult:
        exporter = self._resolve_exporter(effective)
        flow = self._build(
            effective,
            self.partition_decision() if effective.parallelism > 1 else None,
        )
        if exporter is not None:
            flow.trace = exporter.on_event
        result = flow.run()
        if exporter is not None:
            exporter.export(result)
        return result

    def dataflow(self, config: Optional[ExecutionConfig] = None) -> Dataflow:
        """A fresh, un-run serial dataflow (for incremental feeding / benchmarks).

        ``config`` overrides the query/engine configs for this dataflow
        (``allowed_lateness``, ``batch_size``, ``coalesce_updates``,
        ``columnar``).
        """
        return self._build(self._effective(config))

    def sharded_dataflow(
        self, config: Optional[ExecutionConfig] = None
    ) -> ShardedDataflow:
        """A fresh, un-run sharded dataflow for this query.

        ``config`` overrides the query/engine configs for this dataflow
        (``parallelism``, ``backend``, ``retry``, ``fault_plan``,
        ``two_phase`` and the serial dataflow's fields).  Raises
        :class:`~repro.core.errors.ValidationError` when the partition
        analyzer rejects the plan — check :meth:`partition_decision`
        first to branch gracefully.
        """
        decision = self.partition_decision()
        if not decision.partitionable:
            raise ValidationError(
                f"query is not key-partitionable: {decision.reason}"
            )
        return self._build(self._effective(config), decision)

    # -- renderings --------------------------------------------------------------

    def table(self, at: Timestamp | str = MAX_TIMESTAMP) -> Relation:
        """The *snapshot* encoding of the result TVR at processing time ``at``.

        A time-varying relation can be rendered as the sequence of its
        point-in-time snapshots or as the changelog connecting them
        (Section 3); ``table()`` is the snapshot side: one classic
        relation holding exactly the rows the result contains at ``at``,
        with no change metadata.
        """
        sort_keys, limit = self._sort_spec()
        return self._view(
            table_view, at=_as_ptime(at), sort_keys=sort_keys, limit=limit
        )

    def stream(self, until: Timestamp | str = MAX_TIMESTAMP) -> list[StreamChange]:
        """The *changelog* encoding of the result TVR, up to ptime ``until``.

        The other side of the duality: the totally-ordered sequence of
        changes that carries the result from empty to its ``until``
        snapshot.  Each :class:`~repro.exec.materialize.StreamChange`
        is a row plus the change metadata of Listing 13 — ``ptime``
        (when it took effect), ``undo`` (retraction flag), and ``ver``
        (version within its group) — so replaying the changelog
        reconstructs every intermediate snapshot ``table(at=...)`` would
        show.
        """
        if isinstance(self.plan.root, SortNode):
            raise ValidationError(
                "ORDER BY / LIMIT define a table ordering and cannot be "
                "rendered as a stream; drop them or use .table()"
            )
        return self._view(stream_view, until=_as_ptime(until))

    def stream_deltas(
        self, until: Timestamp | str = MAX_TIMESTAMP
    ) -> list[DeltaChange]:
        """The changelog as per-aggregate numeric deltas (Section 6.5.1).

        A compressed changelog encoding, available for grouped queries
        whose non-key outputs are numeric: each update carries only the
        difference against the group's previous version instead of a
        retract/insert pair.
        """
        return self._view(delta_view, until=_as_ptime(until))

    def stream_table(self, until: Timestamp | str = MAX_TIMESTAMP) -> Relation:
        """The changelog encoding rendered as a printable relation.

        Same changes as :meth:`stream`, materialized Listing 9 style:
        one row per change with ``ptime``/``undo``/``ver`` as ordinary
        columns, so the stream rendering can itself be inspected as a
        table — the duality applied to its own output.
        """
        changes = self.stream(until)
        return Relation(
            stream_schema(self.schema), [c.as_tuple() for c in changes]
        )

    # -- helpers ----------------------------------------------------------------

    def _view(self, render, **bounds):
        """``render`` (a :mod:`repro.exec.materialize` view) of this
        query's run, under its EMIT clause and its root's keys."""
        root = self.plan.root
        return render(
            self.run(), self.plan.emit, root.completion_indices,
            root.emit_key_indices, **bounds,
        )

    def _sort_spec(self) -> tuple[Sequence[tuple[int, bool]], Optional[int]]:
        root = self.plan.root
        if isinstance(root, SortNode):
            return root.keys, root.limit
        return (), None
