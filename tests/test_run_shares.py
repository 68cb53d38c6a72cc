"""Micro-batches survive sharding: the run-share protocol.

The parent forms each instant's run once (``event_runs``); the router
hands every shard its share of the run as one task, sequence gaps and
all; a shard whose plan carries ``ColumnarBatch.seqs`` to its root is
fed the share whole and ships the numbers with its payload; the splice
puts the run back together by sequence number and feeds the combine
flow once per run.

Every stream here interleaves keys inside one instant — the case that
used to cap a shard's batch at one or two rows — and every property is
the house invariant: the changelog is the serial one, byte for byte.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, RetryPolicy, StreamEngine
from repro.core.changelog import Change, ChangeKind
from repro.core.colbatch import ColumnarBatch
from repro.core.errors import ExecutionError
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.exec.executor import Dataflow, event_runs, merge_source_events
from repro.plan.partition import PartitionSpec, Route
from repro.plan.physical import PARTIALS
from repro.runtime import merge as merge_module
from repro.runtime import routing
from repro.runtime.merge import ShardLog, reassemble, splice
from repro.runtime.routing import partition_events

SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)
MINUTE = 60_000

TUMBLE = (
    "Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE) TS"
)
HOP = (
    "Hop(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE, slide => INTERVAL '1' MINUTE) HS"
)
TUMBLE_SQL = (
    f"SELECT k, wend, SUM(v) AS total, COUNT(*) AS n FROM {TUMBLE} "
    "GROUP BY k, wend"
)
#: one row in, two rows out: sequence numbers are gathered, not shared
HOP_SQL = f"SELECT k, wend, SUM(v) AS total FROM {HOP} GROUP BY k, wend"
#: rows dropped below the aggregate: sequence numbers are compressed
FILTER_SQL = (
    f"SELECT k, wend, MAX(v) AS hi FROM {TUMBLE} WHERE v % 3 <> 0 "
    "GROUP BY k, wend"
)
DISTINCT_SQL = (
    f"SELECT k, wend, COUNT(DISTINCT v) AS uniq FROM {TUMBLE} "
    "GROUP BY k, wend"
)
TAGGED_QUERIES = [TUMBLE_SQL, HOP_SQL, FILTER_SQL, DISTINCT_SQL]
#: a row-only operator below the root: runs stay split at gaps
JOIN_SQL = "SELECT a.k, a.v, b.v FROM S a JOIN S b ON a.k = b.k WHERE a.v < b.v"


def interleaved_events(bursts=24, burst_len=16, keys=5):
    """Every burst is one instant whose rows *alternate* keys — a shard
    owns every other row or so — with out-of-order event times, a few
    rows behind the watermark, and a watermark every third burst."""
    events, ptime, wm_value, i = [], 1_000_000, 0, 0
    for burst in range(bursts):
        ptime += MINUTE // 4
        for _ in range(burst_len):
            late = -3 * MINUTE if i % 19 == 7 else 0
            event_time = max(0, wm_value + late + (i % 4) * MINUTE // 2)
            events.append(ins(ptime, (i % keys, event_time, i)))
            i += 1
        if burst % 3 == 2:
            wm_value += MINUTE
            events.append(wm(ptime + 1, wm_value))
    events.append(wm(ptime + MINUTE, 1 << 60))
    return events


@st.composite
def interleaved_histories(draw):
    """Random bursts: per burst an instant, a list of (key, event-time
    jitter, value) rows in arbitrary key order, maybe a watermark."""
    bursts = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(0, 6),
                        st.integers(-3, 3),
                        st.integers(0, 40),
                    ),
                    min_size=1,
                    max_size=12,
                ),
                st.integers(0, 2),  # watermark advance after the burst
            ),
            min_size=1,
            max_size=8,
        )
    )
    events, ptime, wm_value = [], 1_000_000, 0
    for rows, advance in bursts:
        ptime += MINUTE // 4
        for key, jitter, value in rows:
            events.append(
                ins(ptime, (key, max(0, wm_value + jitter * MINUTE // 2), value))
            )
        if advance:
            wm_value += advance * MINUTE
            events.append(wm(ptime + 1, wm_value))
    events.append(wm(ptime + MINUTE, 1 << 60))
    return events


def engine_for(events, **config):
    config.setdefault("backend", "sync")
    engine = StreamEngine(config=ExecutionConfig(**config))
    engine.register_stream("S", TimeVaryingRelation(SCHEMA, events))
    return engine


def identical(result, serial):
    """Values, ``ptime``, kinds, order — and the watermark track."""
    return (
        result.changes == serial.changes
        and result.watermarks.as_pairs() == serial.watermarks.as_pairs()
        and result.last_ptime == serial.last_ptime
        and result.late_dropped == serial.late_dropped
    )


def count_batches(monkeypatch_context):
    """Record the size of every ``Dataflow`` feed of source rows (a
    combine flow's feeds of partial payloads are not counted)."""
    sizes = []
    real = Dataflow.process_batch

    def counted(flow, events, source, seqs=None):
        if source != PARTIALS:
            sizes.append(len(events))
        return real(flow, events, source, seqs)

    monkeypatch_context.setattr(Dataflow, "process_batch", counted)
    return sizes


# ---------------------------------------------------------------------------
# the property: interleaved keys x shards x batch x backend x columnar x crash
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", [2, 3, 8])
@settings(max_examples=12, deadline=None)
@given(
    events=interleaved_histories(),
    sql=st.sampled_from(TAGGED_QUERIES + [JOIN_SQL]),
    batch_size=st.sampled_from([1, 2, 7, 64]),
    backend=st.sampled_from(["sync", "processes"]),
    columnar=st.sampled_from(["off", "auto"]),
    two_phase=st.sampled_from(["auto", "off"]),
    crash=st.sampled_from(
        [None, "crash-after-checkpoint:shard=1,at=1",
         "crash-before-batch:shard=1,at=5"]
    ),
)
def test_interleaved_keys_yield_the_serial_changelog(
    shards, events, sql, batch_size, backend, columnar, two_phase, crash,
):
    serial_query = engine_for(
        events, batch_size=batch_size, columnar=columnar
    ).query(sql)
    serial = serial_query.run()
    config = dict(
        parallelism=shards, backend=backend, batch_size=batch_size,
        columnar=columnar, two_phase=two_phase,
    )
    if crash:
        config.update(
            fault_plan=crash,
            retry=RetryPolicy(max_restarts=2, checkpoint_interval=3),
        )
    query = engine_for(events, **config).query(sql)
    flow = query.sharded_dataflow()
    result = flow.run()
    assert identical(result, serial)
    assert query.stream() == serial_query.stream()  # undo, ver
    if not crash:
        recovery = result.metrics.recovery
        assert recovery.shard_restarts == 0 and recovery.dedup_drops == 0


@pytest.mark.parametrize("sql", TAGGED_QUERIES)
@pytest.mark.parametrize("shards", [2, 3, 8])
@pytest.mark.parametrize("batch_size", [1, 2, 7, 64])
def test_shard_batches_are_bounded_by_the_serial_runs(sql, shards, batch_size):
    """A shard is fed once per run it owns rows of — never once per
    sequence gap — and the combine flow once per run.  The runs are the
    ones the *sharded* flow forms (per instant, where a serial flow's
    may span instants: ``run_span_reason``)."""
    events = interleaved_events()
    serial = engine_for(events, batch_size=batch_size).query(sql).run()
    flow = engine_for(
        events, parallelism=shards, batch_size=batch_size, two_phase="auto"
    ).query(sql).sharded_dataflow()
    runs = sum(
        1
        for _, run, _ in event_runs(flow, merge_source_events(flow._sources))
        if hasattr(run[0], "change")
    )
    with pytest.MonkeyPatch.context() as patch:
        sizes = count_batches(patch)
        result = flow.run()
        assert identical(result, serial)
        assert sum(sizes) == sum(
            1 for event in events if hasattr(event, "change")
        )
        assert len(sizes) <= shards * runs
    combine_in = result.metrics.find("CombineAggregate")["rows_in"][0]
    if flow.shards[0].run_split_reason() is None:
        assert batch_size > 1  # (columnar="auto")
        # one merged payload per run that had an on-time row
        assert combine_in <= runs
        if batch_size >= 16:
            assert len(sizes) < len(events) // 2  # real batches formed
    else:
        assert batch_size == 1
        assert flow.shards[0].run_split_reason() == (
            "row batches carry no sequence numbers"
        )


def test_a_restarted_shard_is_fed_the_same_shares():
    """Runs are formed by the parent, so a worker restarted from its
    checkpoint re-emits exactly the slices the failed attempt logged —
    ``dedup_by_seq`` drops them instead of raising — and a fault-free
    shard's log is not walked for duplicates at all."""
    events = interleaved_events()
    serial = engine_for(events, batch_size=64).query(TUMBLE_SQL).run()
    deduped = []
    real = merge_module.dedup_by_seq

    def spy(slices):
        deduped.append(len(slices))
        return real(slices)

    with pytest.MonkeyPatch.context() as patch:
        # ``sharded.run`` binds the name at import
        from repro.runtime import sharded

        patch.setattr(sharded, "dedup_by_seq", spy)
        clean = engine_for(
            events, parallelism=3, batch_size=64, two_phase="auto"
        ).query(TUMBLE_SQL).run()
        assert identical(clean, serial) and deduped == []

        crashed = engine_for(
            events, parallelism=3, batch_size=64, two_phase="auto",
            fault_plan="crash-before-batch:shard=1,at=100",
            retry=RetryPolicy(max_restarts=2, checkpoint_interval=64),
        ).query(TUMBLE_SQL).run()
    assert identical(crashed, serial)
    recovery = crashed.metrics.recovery
    assert recovery.shard_restarts == 1
    assert len(deduped) == 1  # only the restarted shard's log
    # It re-ran from the last checkpoint's offset to the crash: whole
    # shares, re-emitted and dropped.
    assert recovery.rows_replayed > 0 and recovery.dedup_drops > 0


@pytest.mark.parametrize("backend", ["sync", "processes"])
@pytest.mark.parametrize("two_phase", ["auto", "off"])
def test_a_restart_under_lineage_tags_like_the_first_attempt(backend, two_phase):
    """A run that restarted a worker explains its deltas as an
    uninterrupted serial run does: the explain replays the recorded
    sources into a fresh flow, never the crashed attempt's logs, under
    the same config, fault plan included."""
    from repro.obs.lineage import explain_delta

    events = interleaved_events()
    engine = engine_for(events, batch_size=64)
    serial = engine.query(TUMBLE_SQL).dataflow()
    clean = serial.run()
    restarted = engine_for(
        events, parallelism=2, batch_size=64, two_phase=two_phase,
        backend=backend,
        fault_plan="crash-before-batch:shard=1,at=100",
        retry=RetryPolicy(max_restarts=2, checkpoint_interval=64),
    )
    flow = restarted.query(TUMBLE_SQL).sharded_dataflow()
    result = flow.run()
    assert identical(result, clean)
    assert result.metrics.recovery.shard_restarts == 1
    last = len(result.changes) - 1
    for pos in (0, last // 2, last):
        mine = explain_delta(flow, "main", flow.plan, restarted._sources, pos)
        theirs = explain_delta(serial, "main", serial.plan, engine._sources, pos)
        assert (mine["trace_id"], mine["sources"]) == (
            theirs["trace_id"], theirs["sources"]
        )
        assert {step["shard"] for step in mine["path"]} - {None}


# ---------------------------------------------------------------------------
# routing: shares, run ids, the per-route memo
# ---------------------------------------------------------------------------


class TestPartitioning:
    SPEC = PartitionSpec({"s": Route(0)}, "s.k")

    def test_a_run_becomes_one_task_per_owning_shard(self):
        rows = [ins(5, (key, 0, i)) for i, key in enumerate([1, 2, 1, 3, 2, 1])]
        mark = wm(6, 10)
        tasks = partition_events([(rows, "S"), ([mark], "S")], self.SPEC, 2)
        for shard_tasks in tasks:
            *shares, (wm_tag, wm_seqs, wm_events, _) = shard_tasks
            assert (wm_tag, list(wm_seqs), wm_events) == (6, [6], [mark])
            assert len(shares) <= 1  # one run: at most one share each
            for tag, seqs, share, source in shares:
                assert tag == 0 and source == "S"  # the run's id
                assert [rows[seq] for seq in seqs] == share
        owned = sorted(
            seq for shard_tasks in tasks for seq in shard_tasks[0][1]
            if len(shard_tasks) > 1
        )
        assert owned == list(range(6))  # every row, exactly one owner
        # same key, same shard — across runs and calls
        again = partition_events([(rows[:1], "S")], self.SPEC, 2)
        first_owner = next(i for i, t in enumerate(tasks) if 0 in t[0][1])
        assert again[first_owner] and not again[1 - first_owner]

    def test_unrouted_rows_are_broadcast_whole(self):
        rows = [ins(5, (1, 0, 0)), ins(5, (2, 0, 1))]
        tasks = partition_events([(rows, "Other")], self.SPEC, 3)
        assert [t[0][2] for t in tasks] == [rows] * 3
        assert [list(t[0][1]) for t in tasks] == [[0, 1]] * 3

    def test_the_hash_is_taken_once_per_distinct_key(self, monkeypatch):
        hashed = []
        real = routing.stable_hash
        monkeypatch.setattr(
            routing, "stable_hash",
            lambda key: hashed.append(key) or real(key),
        )
        events = interleaved_events(bursts=10, burst_len=20, keys=7)
        runs = [([event], "S") for event in events]
        partition_events(runs, self.SPEC, 4)
        assert sorted(hashed) == list(range(7))

    def test_equal_keys_of_unequal_repr_are_not_conflated(self):
        """``1 == 1.0`` but they hash (by ``repr``) to different shards;
        the memo must not route one by the other's answer, or where a
        key lands would depend on which arrived first."""
        shards = 64
        as_int = partition_events([([ins(1, (1, 0, 0))], "S")], self.SPEC, shards)
        as_float = partition_events(
            [([ins(1, (1.0, 0, 0))], "S")], self.SPEC, shards
        )
        both = partition_events(
            [([ins(1, (1, 0, 0)), ins(1, (1.0, 0, 0))], "S")], self.SPEC, shards
        )
        owner = lambda tasks: {i for i, t in enumerate(tasks) if t}  # noqa: E731
        assert owner(as_int) != owner(as_float)
        assert owner(both) == owner(as_int) | owner(as_float)


# ---------------------------------------------------------------------------
# the carry rule, operator by operator
# ---------------------------------------------------------------------------


def _shard_flow(sql, **config):
    config.setdefault("batch_size", 64)
    flow = engine_for(
        interleaved_events(), parallelism=2, two_phase="auto", **config
    ).query(sql).sharded_dataflow()
    return flow.shards[0]


class TestSeqsCarry:
    def _outputs(self, sql, seqs):
        """Feed one share through a shard flow, spying on every
        operator's columnar output."""
        flow = _shard_flow(sql)
        seen = {}
        for op in flow.operators:
            if not op.supports_columnar:
                continue

            def spy(port, batch, op=op, real=op.on_cols):
                out = real(port, batch)
                seen[type(op).__name__] = (batch, out)
                return out

            op.on_cols = spy
        rows = [
            ins(1_000_000, (i % 3, (i % 4) * MINUTE // 2, i)) for i in range(12)
        ]
        flow.process_batch(rows, "S", seqs)
        return seen, flow.take_output_of("main")

    def test_the_fused_tumble_shares_the_vector(self):
        """The shard plan is scan, a tumble step, and the partial
        aggregate that absorbed the projection between them."""
        seqs = list(range(0, 24, 2))
        seen, (payload,) = self._outputs(TUMBLE_SQL, seqs)
        assert set(seen) == {
            "ScanOperator", "PipelineOperator", "PartialAggregateOperator"
        }
        assert seen["ScanOperator"][1].seqs is seqs
        assert seen["PipelineOperator"][1].seqs is seqs
        kind, count, entries, shipped = payload.values
        assert (kind, count, shipped) == ("P2R", 12, tuple(seqs))

    def test_hop_gathers_it_like_ptimes(self):
        seqs = list(range(100, 112))
        seen, (payload,) = self._outputs(HOP_SQL, seqs)
        batch, out = seen["HopOperator"]
        assert len(out) == 2 * len(batch) and len(out.seqs) == len(out.ptimes)
        assert list(out.seqs) == [seq for seq in seqs for _ in range(2)]
        assert payload.values[3] == tuple(out.seqs)

    def test_a_fused_filter_compresses_it_like_ptimes(self):
        seqs = list(range(0, 36, 3))
        seen, (payload,) = self._outputs(FILTER_SQL, seqs)
        kept = [seq for seq, i in zip(seqs, range(12)) if i % 3 != 0]
        assert list(payload.values[3]) == kept
        assert payload.values[1] == len(kept)

    def test_the_late_cut_compresses_it(self):
        flow = _shard_flow(TUMBLE_SQL)
        flow.process(wm(999_999, 10 * MINUTE), "S")
        rows = [ins(1_000_000, (1, ts, 0)) for ts in (0, 11 * MINUTE, 1, 12 * MINUTE)]
        flow.process_batch(rows, "S", [4, 9, 11, 20])
        (payload,) = flow.take_output_of("main")
        kind, count, entries, shipped = payload.values
        assert (count, shipped) == (2, (9, 20))
        assert [key[1] for _, key, _ in entries] == [12 * MINUTE, 14 * MINUTE]
        assert flow.result().late_dropped == 2

    @pytest.mark.parametrize("sql", TAGGED_QUERIES)
    def test_none_stays_none(self, sql):
        seen, produced = self._outputs(sql, None)
        assert all(
            out.seqs is None
            for _, out in seen.values()
            if type(out) is ColumnarBatch
        )
        assert all(len(change.values) == 3 for change in produced)

    @pytest.mark.parametrize("sql", TAGGED_QUERIES)
    def test_columnar_partial_builds_the_row_partials_payload(self, sql):
        rows = [
            ins(1_000_000, (i % 3, (i % 4) * MINUTE // 2, i % 5)) for i in range(16)
        ]
        columnar, plain = _shard_flow(sql), _shard_flow(sql, columnar="off")
        columnar.process_batch(rows, "S")
        plain.process_batch(rows, "S")
        assert columnar.take_output_of("main") == plain.take_output_of("main")

    def test_a_flow_that_cannot_carry_refuses_a_share(self):
        for flow, why in (
            (_shard_flow(TUMBLE_SQL, columnar="off"), "row batches"),
            (_shard_flow(TUMBLE_SQL, coalesce_updates=True), "PartialAggregate"),
            (_shard_flow(JOIN_SQL), "Join"),
        ):
            assert why in flow.run_split_reason()
            with pytest.raises(ExecutionError, match="cannot carry sequence"):
                flow.process_batch([ins(1_000_000, (1, 0, 0))], "S", [0])
        single = engine_for(
            interleaved_events(), parallelism=2, two_phase="off", batch_size=64
        ).query(TUMBLE_SQL).sharded_dataflow()
        assert single.shards[0].run_split_reason() == (
            "Aggregate cannot carry sequence numbers"
        )


# ---------------------------------------------------------------------------
# the splice: reassembly and the double-claim check
# ---------------------------------------------------------------------------


def _payload(entries, seqs=None, ptime=7):
    values = ("P2R", len(entries), tuple(entries))
    if seqs is not None:
        values += (tuple(seqs),)
    return Change(ChangeKind.INSERT, values, ptime)


class TestReassemble:
    def test_entries_interleave_by_sequence_number(self):
        a = _payload(["a0", "a2", "a2'", "a5"], [0, 2, 2, 5])
        b = _payload(["b1", "b3", "b4"], [1, 3, 4])
        (merged,) = reassemble([(0, [a]), (1, [b])], 0)
        assert merged.values == (
            "P2R", 7, ("a0", "b1", "a2", "a2'", "b3", "b4", "a5")
        )
        assert (merged.kind, merged.ptime) == (a.kind, a.ptime)

    def test_a_lone_share_loses_only_its_numbers(self):
        (merged,) = reassemble([(3, [_payload(["x", "y"], [4, 9])])], 4)
        assert merged.values == ("P2R", 2, ("x", "y"))

    def test_an_untagged_slice_passes_through(self):
        changes = [_payload(["x"])]
        assert reassemble([(0, changes)], 0) is changes

    def test_the_row_that_opened_the_run_needs_no_numbers(self):
        """A share of one row that is the run's first is fed as rows (a
        batch of one is not worth transposing): its payload has no
        numbers, and its tag *is* its sequence number."""
        a = _payload(["a4", "a4'"])
        b = _payload(["b5", "b7"], [5, 7])
        (merged,) = reassemble([(0, [a]), (1, [b])], 4)
        assert merged.values == ("P2R", 4, ("a4", "a4'", "b5", "b7"))

    def test_two_shards_claiming_one_sequence_number_raise(self):
        a = _payload(["a0", "a1"], [0, 1])
        b = _payload(["b1"], [1])
        with pytest.raises(ExecutionError, match="shards 0 and 2 both .* #1;"):
            reassemble([(0, [a]), (2, [b])], 0)

    def test_two_untagged_slices_under_one_tag_raise(self):
        with pytest.raises(ExecutionError, match="shards 0 and 1 both"):
            reassemble([(0, [_payload(["a"])]), (1, [_payload(["b"])])], 5)


class TestSplice:
    def _sharded(self, two_phase):
        return engine_for(
            interleaved_events(), parallelism=2, two_phase=two_phase,
            batch_size=64,
        ).query(TUMBLE_SQL).sharded_dataflow()

    def test_a_double_claim_raises_through_splice(self):
        flow = self._sharded("auto")
        entry = (1, (1, 2 * MINUTE, 0), (5, None))
        logs = {
            0: {"main": ShardLog([(0, [_payload([entry], [3])])])},
            1: {"main": ShardLog([(0, [_payload([entry], [3])])])},
        }
        with pytest.raises(ExecutionError, match="both produced output"):
            splice(flow._outputs, flow.combines, logs, set())

    def test_single_phase_slices_still_may_not_share_a_tag(self):
        flow = self._sharded("off")
        change = Change(ChangeKind.INSERT, (1, 2 * MINUTE, 5, 1), 7)
        logs = {
            0: {"main": ShardLog([(4, [change])])},
            1: {"main": ShardLog([(4, [change])])},
        }
        with pytest.raises(ExecutionError, match="shards 0 and 1 both"):
            splice(flow._outputs, flow.combines, logs, set())

    def test_one_event_at_a_time_stays_on_the_row_path(self, monkeypatch):
        flow = self._sharded("auto")
        shares = []
        real = Dataflow.process_batch

        def spy(shard, events, source, seqs=None):
            if seqs is not None:
                shares.append(seqs)
            return real(shard, events, source, seqs)

        monkeypatch.setattr(Dataflow, "process_batch", spy)
        serial = engine_for(interleaved_events(), batch_size=64).query(
            TUMBLE_SQL
        ).run()
        for event, source in merge_source_events(flow._sources):
            flow.process(event, source)
        assert identical(flow.finish(), serial) and shares == []

    def test_the_stage_is_fed_once_per_run(self, monkeypatch):
        flow = self._sharded("auto")
        feeds = []
        combine = flow.combines["main"]
        real = combine.process_batch
        monkeypatch.setattr(
            combine, "process_batch",
            lambda events, source: feeds.append(events[0].change.values[1])
            or real(events, source),
        )
        events = merge_source_events(flow._sources)
        run_sizes = [
            len(run) for _, run, _ in event_runs(flow, events)
            if hasattr(run[0], "change")
        ]
        result = flow.run()
        # every feed is a whole run's on-time rows
        assert len(feeds) <= len(run_sizes)
        assert sum(feeds) + result.late_dropped == sum(run_sizes)
        assert max(feeds) > 8


# ---------------------------------------------------------------------------
# EXPLAIN says which shape a plan gets, and why
# ---------------------------------------------------------------------------


class TestExplain:
    def _runs_line(self, sql, **config):
        config.setdefault("parallelism", 2)
        text = engine_for(interleaved_events(), **config).query(sql).explain(
            mode="physical"
        )
        return [line.strip() for line in text.splitlines() if "runs:" in line]

    def test_sequence_tagged(self):
        assert self._runs_line(TUMBLE_SQL, batch_size=64) == [
            "runs: per instant, sequence-tagged"
        ]

    @pytest.mark.parametrize(
        "sql,config,why",
        [
            (TUMBLE_SQL, dict(batch_size=64, two_phase="off"), "Aggregate"),
            (JOIN_SQL, dict(batch_size=64), "Join"),
            (TUMBLE_SQL, dict(batch_size=64, coalesce_updates=True),
             "PartialAggregate"),
        ],
    )
    def test_split_names_the_operator(self, sql, config, why):
        assert self._runs_line(sql, **config) == [
            f"runs: split at sequence gaps — {why} cannot carry "
            "sequence numbers"
        ]

    def test_split_without_columnar_batches(self):
        for config in (dict(batch_size=1), dict(batch_size=64, columnar="off")):
            assert self._runs_line(TUMBLE_SQL, **config) == [
                "runs: split at sequence gaps — row batches carry no "
                "sequence numbers"
            ]

    def test_serial_plans_say_their_span_not_a_share_shape(self):
        """A serial flow has no shares; its line is its run span
        (``tests/test_run_span.py`` has the grid)."""
        assert self._runs_line(TUMBLE_SQL, parallelism=1, batch_size=64) == [
            "runs: across instants, up to the next watermark"
        ]

    def test_explain_agrees_with_the_flow(self):
        for sql in TAGGED_QUERIES + [JOIN_SQL]:
            for config in (
                dict(batch_size=64), dict(batch_size=1),
                dict(batch_size=64, two_phase="off"),
                dict(batch_size=64, coalesce_updates=True),
            ):
                query = engine_for(
                    interleaved_events(), parallelism=2, **config
                ).query(sql)
                reason = query.sharded_dataflow().run_split_reason()
                (line,) = [
                    line for line in query.explain(mode="physical").splitlines()
                    if "runs:" in line
                ]
                if reason is None:
                    assert line.endswith("sequence-tagged")
                else:
                    assert line.endswith(reason)
