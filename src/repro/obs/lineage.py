"""Delta lineage: sampled, deterministic provenance tracing.

The paper's central claim is that a stream is a time-varying relation,
which means every emitted delta has a precise *relational* cause: the
set of source rows whose arrival (or the watermark that sealed them)
made the operator pipeline produce it.  After the DAG refactor a single
operator's output can feed many standing queries, so "which source rows
produced this delta, and through which shared operators?" is exactly
the question an operator of the service needs answered.

:class:`LineageRecorder` answers it without perturbing execution:

* **Deterministic sampling.**  An ingested event is traced iff
  ``crc32(source || seq) % sample_rate == 0`` — a pure function of the
  source name and the event's per-source arrival ordinal.  No wall
  clock, no RNG, so a serial run, a sharded run, and a re-run after
  checkpoint/restore all sample the *same* events and produce the same
  lineage graph.
* **Zero changelog impact.**  Tracing never touches
  :class:`~repro.core.changelog.Change` objects; the executor threads a
  *cause* token alongside batches, and with tracing off the token is
  ``None`` everywhere.  The byte-identity tests in
  ``tests/test_lineage.py`` pin this.
* **Bounded memory.**  At most ``max_traces`` sampled ingests are
  retained; older traces are evicted whole (every node they created)
  and counted in :attr:`LineageRecorder.dropped`.

The graph is append-only while an event is being pushed through a
flow: :meth:`begin_event` opens a trace (or returns ``None`` if the
event is unsampled), :meth:`record_operator` adds one node per
producing operator invocation, and :meth:`record_output` indexes the
changelog positions a traced batch landed at, keyed by
``(output_id, position)``.  Because subscription deltas are sequenced
by changelog position, ``explain(output_id, seq)`` resolves a
subscriber-visible delta directly to its trace, walking parent edges
back to the concrete source rows.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..core.tvr import RowEvent, StreamEvent

__all__ = ["LineageRecorder", "LineageNode", "sample_hash", "is_sampled"]


def sample_hash(source: str, seq: int) -> int:
    """The deterministic sampling hash for ingest ordinal ``seq`` of ``source``."""
    payload = source.encode("utf-8") + seq.to_bytes(8, "little", signed=False)
    return zlib.crc32(payload)


def is_sampled(source: str, seq: int, sample_rate: int) -> bool:
    """Whether event ``seq`` of ``source`` is traced at ``sample_rate``.

    ``sample_rate`` is "1 in N": 0 disables tracing, 1 traces
    everything, 64 traces roughly one event in 64 — always the *same*
    one in 64, because the decision is a pure function of its inputs.
    """
    if sample_rate <= 0:
        return False
    if sample_rate == 1:
        return True
    return sample_hash(source, seq) % sample_rate == 0


@dataclass
class LineageNode:
    """One vertex of the causal graph.

    ``kind`` is ``"source"`` (a traced ingest: ``source``/``seq`` name
    the event, ``values`` its row payload or watermark value),
    or ``"operator"`` (one producing operator invocation: ``operator``
    names it, ``shard`` locates it, ``shared_by`` counts the standing
    queries riding it, ``produced`` the changes it emitted).
    ``parents`` are the node ids of the causes it consumed.
    """

    node_id: int
    kind: str
    trace_id: int
    parents: tuple[int, ...] = ()
    source: str = ""
    seq: int = -1
    values: Any = None
    ptime: Any = None
    operator: str = ""
    shard: Optional[int] = None
    shared_by: int = 1
    produced: int = 0

    def snapshot(self) -> dict:
        return {
            "node_id": self.node_id,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "parents": tuple(self.parents),
            "source": self.source,
            "seq": self.seq,
            "values": self.values,
            "ptime": self.ptime,
            "operator": self.operator,
            "shard": self.shard,
            "shared_by": self.shared_by,
            "produced": self.produced,
        }

    @classmethod
    def restore(cls, payload: dict) -> "LineageNode":
        return cls(**payload)


@dataclass
class _Trace:
    """Book-keeping for one sampled ingest: its nodes and output hits."""

    trace_id: int
    node_ids: list[int] = field(default_factory=list)
    output_keys: list[tuple[str, int]] = field(default_factory=list)


class LineageRecorder:
    """Sampled provenance recorder shared by one flow (or shard group).

    One recorder serves a whole :class:`~repro.runtime.sharded.
    ShardedDataflow` (the parent makes the sampling decision once and
    every shard flow records into the same graph), so lineage is
    identical whether a plan runs serially or sharded.
    """

    def __init__(self, sample_rate: int = 1, max_traces: int = 4096) -> None:
        if sample_rate < 0:
            raise ValueError("sample_rate must be >= 0 (0 disables tracing)")
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.sample_rate = sample_rate
        self.max_traces = max_traces
        self._next_node = 0
        self._next_trace = 0
        self._seqs: dict[str, int] = {}            # per-source ingest ordinals
        self._nodes: dict[int, LineageNode] = {}
        self._traces: "OrderedDict[int, _Trace]" = OrderedDict()
        self._outputs: dict[tuple[str, int], int] = {}  # (output_id, pos) -> node
        self.dropped = 0                            # traces evicted by the bound
        self.sampled = 0                            # traces opened
        self.events_seen = 0                        # ingests offered (sampled or not)
        # Per-source fast-path state for :meth:`offer`, keyed by the
        # spelling the caller used: [lowered, crc-prefix, next-sampled].
        self._offer_state: dict[str, list] = {}
        # The pending context: parent-driven sampling for sharded
        # flows.  Plain attributes — the executor reads them per event.
        self.pending: Optional[tuple[int, ...]] = None
        self.pending_active = False
        # Output positions noted by shard flows; the sharded parent maps
        # them to merged-changelog positions after routing each event.
        self._shard_notes: list[tuple[str, tuple[int, ...], int]] = []

    # -- sampling ------------------------------------------------------------

    def next_seq(self, source: str) -> int:
        """Claim the next ingest ordinal for ``source`` (case-normalized)."""
        source = source.lower()
        seq = self._seqs.get(source, 0)
        self._seqs[source] = seq + 1
        return seq

    def begin_event(
        self,
        source: str,
        *,
        kind: str = "source",
        values: Any = None,
        ptime: Any = None,
        seq: Optional[int] = None,
    ) -> Optional[tuple[int, ...]]:
        """Open a trace for one ingested event, if sampled.

        Returns the cause token (a tuple of source node ids) to thread
        through the flow, or ``None`` when the event is unsampled.  Pass
        ``seq`` explicitly to replay a decision already made (the
        sharded parent claims the ordinal, each shard replays it).

        Source names are case-normalized so the serial replay path
        (which lowercases registered sources) and the service ingest
        path sample identically.
        """
        source = source.lower()
        if seq is None:
            seq = self.next_seq(source)
        self.events_seen += 1
        if not is_sampled(source, seq, self.sample_rate):
            return None
        return self._open_source(source, seq, kind, values, ptime)

    def offer(self, source: str) -> Optional[int]:
        """Claim the next ordinal for ``source``; its seq if sampled.

        The executor's per-event fast path: one call decides sampling
        for the overwhelmingly common *untraced* case, without building
        the row kwargs :meth:`begin_event` wants.  :meth:`claim` opens
        the trace when this returns a seq.
        Equivalent to ``begin_event(...) is not None`` bookkeeping-wise
        (the ordinal is consumed and ``events_seen`` counted either
        way), and the same deterministic decision: ``crc32`` of the
        ``(source, seq)`` payload.

        The hash never runs on the unsampled path: the *next* sampled
        ordinal is precomputed per source (it only depends on the
        source name and the rate), so skipping an event is a counter
        bump and one comparison.  The sampled path pays the scan to
        the following sampled ordinal — the same crc32-per-ordinal
        total, batched where it's cheap.
        """
        entry = self._offer_state.get(source)
        if entry is None:
            entry = self._make_offer_state(source)
        lowered = entry[0]
        seqs = self._seqs
        seq = seqs.get(lowered, 0)
        seqs[lowered] = seq + 1
        self.events_seen += 1
        nxt = entry[2]
        if nxt is None:
            return None                 # tracing disabled (rate 0)
        if seq > nxt:                   # stale: ordinals were claimed
            nxt = self._next_sampled(entry[1], seq)  # via begin_event
            entry[2] = nxt
        if seq != nxt:
            return None
        entry[2] = self._next_sampled(entry[1], seq + 1)
        return seq

    def _make_offer_state(self, source: str) -> list:
        lowered = source.lower()
        prefix = lowered.encode("utf-8")
        if self.sample_rate <= 0:
            nxt: Optional[int] = None
        else:
            nxt = self._next_sampled(prefix, self._seqs.get(lowered, 0))
        entry = [lowered, prefix, nxt]
        self._offer_state[source] = entry
        return entry

    def _next_sampled(self, prefix: bytes, start: int) -> int:
        """The first sampled ordinal ``>= start`` for this source."""
        rate = self.sample_rate
        if rate == 1:
            return start
        crc32 = zlib.crc32
        ahead = start
        while crc32(prefix + ahead.to_bytes(8, "little")) % rate:
            ahead += 1
        return ahead

    def claim(
        self, source: str, events: Sequence[StreamEvent]
    ) -> Optional[tuple[int, ...]]:
        """The cause token for a run of events arriving from ``source``.

        Every event claims its own per-source ordinal and is sampled on
        it (:meth:`offer`), so the decisions are the same whether the
        run is one event or a micro-batch, serial or sharded; the token
        merges the source nodes of the sampled events, and the run's
        output is attributed to all of them.  ``None`` = untraced.

        When a sharded parent already decided for these events, its
        pending token is replayed verbatim and no ordinal is consumed.
        """
        if self.pending_active:
            return self.pending
        ids: list[int] = []
        for event in events:
            seq = self.offer(source)
            if seq is None:
                continue
            if isinstance(event, RowEvent):
                kind, values = "source", event.change.values
            else:
                kind, values = "watermark", event.value
            ids.extend(
                self._open_source(source.lower(), seq, kind, values, event.ptime)
            )
        return tuple(ids) if ids else None

    def _open_source(
        self, source: str, seq: int, kind: str, values: Any, ptime: Any
    ) -> tuple[int, ...]:
        trace = self._open_trace()
        node = self._add_node(
            LineageNode(
                node_id=self._next_node,
                kind=kind,
                trace_id=trace.trace_id,
                source=source,
                seq=seq,
                values=values,
                ptime=ptime,
            ),
            trace,
        )
        return (node.node_id,)

    # -- pending context (sharded parent <-> shard flows) ----------------------

    def set_pending(self, cause: Optional[tuple[int, ...]]) -> None:
        """Pin the cause token shard flows should use for the next event.

        ``cause=None`` is meaningful (the parent decided the event is
        unsampled), so activation is tracked separately from the token.
        """
        self.pending = cause
        self.pending_active = True

    def clear_pending(self) -> None:
        self.pending = None
        self.pending_active = False

    def note_shard_output(
        self, output_id: str, cause: tuple[int, ...], count: int
    ) -> None:
        """A shard flow produced ``count`` traced changes on ``output_id``.

        Shard-local changelog positions differ from merged ones, so the
        shard only notes the production; the parent drains the notes and
        calls :meth:`record_output` with merged positions.
        """
        self._shard_notes.append((output_id, cause, count))

    def drain_shard_notes(self) -> list[tuple[str, tuple[int, ...], int]]:
        notes = self._shard_notes
        self._shard_notes = []
        return notes

    # -- recording -------------------------------------------------------------

    def record_operator(
        self,
        cause: tuple[int, ...],
        operator: str,
        *,
        shard: Optional[int] = None,
        shared_by: int = 1,
        produced: int = 0,
    ) -> tuple[int, ...]:
        """Add an operator invocation caused by ``cause``; returns its token."""
        trace = self._trace_of(cause)
        if trace is None:          # the whole trace was evicted mid-flight
            return cause
        node = self._add_node(
            LineageNode(
                node_id=self._next_node,
                kind="operator",
                trace_id=trace.trace_id,
                parents=tuple(cause),
                operator=operator,
                shard=shard,
                shared_by=shared_by,
                produced=produced,
            ),
            trace,
        )
        return (node.node_id,)

    def record_output(
        self, cause: tuple[int, ...], output_id: str, positions: range
    ) -> None:
        """Index changelog ``positions`` of ``output_id`` as caused by ``cause``."""
        trace = self._trace_of(cause)
        if trace is None:
            return
        node_id = cause[0]
        for pos in positions:
            self._outputs[(output_id, pos)] = node_id
            trace.output_keys.append((output_id, pos))

    # -- queries ---------------------------------------------------------------

    def explain(self, output_id: str, seq: int) -> Optional[dict]:
        """The provenance of changelog position ``seq`` of ``output_id``.

        Returns ``None`` when the position was never traced (unsampled
        event, tracing off, or the trace was evicted).  Otherwise a
        dict with the contributing ``sources`` (concrete rows) and the
        operator ``path`` from source to output, each step carrying its
        ``[shared ×k]`` attribution.
        """
        node_id = self._outputs.get((output_id, seq))
        if node_id is None or node_id not in self._nodes:
            return None
        sources: list[dict] = []
        path: list[dict] = []
        seen: set[int] = set()
        stack = [node_id]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            node = self._nodes.get(nid)
            if node is None:
                continue
            if node.kind == "operator":
                path.append(
                    {
                        "operator": node.operator,
                        "shard": node.shard,
                        "shared_by": node.shared_by,
                        "produced": node.produced,
                    }
                )
            else:
                sources.append(
                    {
                        "kind": node.kind,
                        "source": node.source,
                        "seq": node.seq,
                        "values": node.values,
                        "ptime": node.ptime,
                    }
                )
            stack.extend(node.parents)
        # Leaf-to-root order reads naturally: reverse the DFS discovery.
        path.reverse()
        sources.sort(key=lambda s: (s["source"], s["seq"]))
        return {
            "output_id": output_id,
            "seq": seq,
            "trace_id": self._nodes[node_id].trace_id,
            "sources": sources,
            "path": path,
        }

    def traced_positions(self, output_id: str) -> list[int]:
        """Changelog positions of ``output_id`` with retained lineage."""
        return sorted(pos for (oid, pos) in self._outputs if oid == output_id)

    def summary(self) -> dict:
        return {
            "sample_rate": self.sample_rate,
            "events_seen": self.events_seen,
            "sampled": self.sampled,
            "retained": len(self._traces),
            "dropped": self.dropped,
            "nodes": len(self._nodes),
            "indexed_outputs": len(self._outputs),
        }

    # -- checkpoint/restore ------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "sample_rate": self.sample_rate,
            "max_traces": self.max_traces,
            "next_node": self._next_node,
            "next_trace": self._next_trace,
            "seqs": dict(self._seqs),
            "nodes": [n.snapshot() for n in self._nodes.values()],
            "traces": [
                {
                    "trace_id": t.trace_id,
                    "node_ids": list(t.node_ids),
                    "output_keys": list(t.output_keys),
                }
                for t in self._traces.values()
            ],
            "outputs": list(self._outputs.items()),
            "dropped": self.dropped,
            "sampled": self.sampled,
            "events_seen": self.events_seen,
        }

    @classmethod
    def restore(cls, payload: dict) -> "LineageRecorder":
        rec = cls(payload["sample_rate"], payload["max_traces"])
        rec._next_node = payload["next_node"]
        rec._next_trace = payload["next_trace"]
        rec._seqs = dict(payload["seqs"])
        rec._nodes = {
            n["node_id"]: LineageNode.restore(dict(n)) for n in payload["nodes"]
        }
        for t in payload["traces"]:
            rec._traces[t["trace_id"]] = _Trace(
                trace_id=t["trace_id"],
                node_ids=list(t["node_ids"]),
                output_keys=[tuple(k) for k in t["output_keys"]],
            )
        rec._outputs = {tuple(k): v for k, v in payload["outputs"]}
        rec.dropped = payload["dropped"]
        rec.sampled = payload["sampled"]
        rec.events_seen = payload["events_seen"]
        return rec

    # -- internals -----------------------------------------------------------

    def _open_trace(self) -> _Trace:
        trace = _Trace(trace_id=self._next_trace)
        self._next_trace += 1
        self.sampled += 1
        self._traces[trace.trace_id] = trace
        while len(self._traces) > self.max_traces:
            _, evicted = self._traces.popitem(last=False)
            for nid in evicted.node_ids:
                self._nodes.pop(nid, None)
            for key in evicted.output_keys:
                self._outputs.pop(key, None)
            self.dropped += 1
        return trace

    def _add_node(self, node: LineageNode, trace: _Trace) -> LineageNode:
        self._next_node += 1
        self._nodes[node.node_id] = node
        trace.node_ids.append(node.node_id)
        return node

    def _trace_of(self, cause: tuple[int, ...]) -> Optional[_Trace]:
        if not cause:
            return None
        node = self._nodes.get(cause[0])
        if node is None:
            return None
        return self._traces.get(node.trace_id)
