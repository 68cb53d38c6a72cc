"""Property tests: sharded execution is indistinguishable from serial.

Hypothesis generates random keyed event histories — out-of-order event
times, interleaved watermarks, duplicate keys, late rows — and random
shard counts, then checks that the sharded runtime reproduces the
serial changelog *row for row*: values, ``ptime``, ``undo``, ``ver``,
ordering, watermark steps, and the late-drop/expiry counters.  A
second property drives the sharded checkpoint/restore roundtrip at a
random crash point, and a third pins the flow contract: however a
sharded flow is driven — per-event ``process``, ``replay`` at any batch
size, ``run()`` on any backend, with a crash and a history-less
checkpoint in the middle — it yields the serial changelog.  A fourth
adds the restore-side drivers: a flow restored mid-stream (its history
adopted still encoded), optionally cut *again* before anything read it,
finishes with the uninterrupted changelog.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.exec.executor import merge_source_events

SCHEMA = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])

MINUTE = 60_000

KEYED_WINDOW_SUM = """
    SELECT k, wend, SUM(v) AS total
    FROM Tumble(data => TABLE(S),
                timecol => DESCRIPTOR(ts),
                dur => INTERVAL '2' MINUTE) TS
    GROUP BY k, wend
    EMIT STREAM
"""

WINDOW_ONLY_COUNT = """
    SELECT wend, COUNT(*) AS n
    FROM Tumble(data => TABLE(S),
                timecol => DESCRIPTOR(ts),
                dur => INTERVAL '2' MINUTE) TS
    GROUP BY wend
"""

SELF_JOIN = """
    SELECT a.k, a.v, b.v
    FROM S a JOIN S b ON a.k = b.k
    WHERE a.v < b.v
"""

QUERIES = [KEYED_WINDOW_SUM, WINDOW_ONLY_COUNT, SELF_JOIN]


@st.composite
def event_histories(draw, bursty=False):
    """A random keyed stream: rows with jittered event times + watermarks.

    With ``bursty`` processing time only advances on some steps, so
    same-instant bursts form real micro-batches.
    """
    steps = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # row or watermark advance
                st.integers(min_value=0, max_value=7),  # key / advance size
                st.integers(min_value=-3, max_value=3),  # event-time jitter (min)
                st.integers(min_value=0, max_value=99),  # value
                st.integers(min_value=0, max_value=3),  # 0: the clock ticks
            ),
            min_size=1,
            max_size=40,
        )
    )
    events = []
    ptime = 1_000_000
    wm_value = 0
    for is_row, a, b, c, tick in steps:
        if not bursty or tick == 0:
            ptime += MINUTE // 4
        if is_row:
            event_time = max(0, wm_value + b * MINUTE)  # some rows arrive late
            events.append(ins(ptime, (a, event_time, c)))
        else:
            wm_value += a * MINUTE
            events.append(wm(ptime, wm_value))
    return events


def build_engine(events, parallelism, backend="sync", allowed_lateness=0):
    eng = StreamEngine(
        config=ExecutionConfig(
            parallelism=parallelism,
            backend=backend,
            allowed_lateness=allowed_lateness,
        )
    )
    eng.register_stream("S", TimeVaryingRelation(SCHEMA, events))
    return eng


def run_query(events, sql, parallelism, backend="sync", allowed_lateness=0):
    eng = build_engine(events, parallelism, backend, allowed_lateness)
    return eng.query(sql)


@settings(max_examples=30, deadline=None)
@given(
    events=event_histories(),
    sql=st.sampled_from(QUERIES),
    shards=st.integers(min_value=2, max_value=5),
    lateness=st.sampled_from([0, MINUTE]),
)
def test_sharded_equals_serial(events, sql, shards, lateness):
    serial = run_query(events, sql, 1, allowed_lateness=lateness)
    sharded = run_query(events, sql, shards, allowed_lateness=lateness)
    assert sharded.partition_decision().partitionable
    rs, rp = serial.run(), sharded.run()
    assert rp.changes == rs.changes  # values, ptime, undo, ver, ordering
    assert rp.watermarks.as_pairs() == rs.watermarks.as_pairs()
    assert rp.last_ptime == rs.last_ptime
    assert rp.late_dropped == rs.late_dropped
    assert rp.expired_rows == rs.expired_rows
    assert sharded.stream() == serial.stream()
    assert sharded.table().rows() == serial.table().rows()


@settings(max_examples=15, deadline=None)
@given(
    events=event_histories(),
    shards=st.integers(min_value=2, max_value=4),
)
def test_process_pool_equals_serial(events, shards):
    serial = run_query(events, KEYED_WINDOW_SUM, 1)
    sharded = run_query(events, KEYED_WINDOW_SUM, shards, backend="processes")
    assert sharded.run().changes == serial.run().changes
    assert sharded.stream() == serial.stream()


@settings(max_examples=15, deadline=None)
@given(
    events=event_histories(),
    shards=st.integers(min_value=2, max_value=4),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
def test_sharded_checkpoint_roundtrip(events, shards, cut):
    """Checkpoint at a random crash point, restore, replay: identical."""
    query = run_query(events, KEYED_WINDOW_SUM, shards)
    uninterrupted = query.run()

    split = int(len(events) * cut)
    first = query.sharded_dataflow()
    for event in events[:split]:
        first.process(event, "S")
    blob = first.checkpoint()
    del first  # the "crash"

    recovered = query.sharded_dataflow()
    recovered.restore(blob)
    for event in events[split:]:
        recovered.process(event, "S")
    result = recovered.finish()
    assert result.changes == uninterrupted.changes
    assert result.watermarks.as_pairs() == uninterrupted.watermarks.as_pairs()
    assert result.last_ptime == uninterrupted.last_ptime


def _finished(flow, drive):
    drive(flow)
    result = flow.finish()
    return result.changes, result.watermarks.as_pairs(), result.last_ptime


@settings(max_examples=20, deadline=None)
@given(
    events=event_histories(bursty=True),
    sql=st.sampled_from(QUERIES),
    shards=st.integers(min_value=2, max_value=4),
    two_phase=st.sampled_from(["off", "auto"]),
    batch_size=st.sampled_from([1, 7, 64]),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
def test_every_driver_yields_the_serial_changelog(
    events, sql, shards, two_phase, batch_size, cut
):
    serial = run_query(events, sql, 1).run()
    expected = (serial.changes, serial.watermarks.as_pairs(), serial.last_ptime)

    def flow_on(backend):
        eng = StreamEngine(
            config=ExecutionConfig(
                parallelism=shards,
                backend=backend,
                two_phase=two_phase,
                batch_size=batch_size,
            )
        )
        eng.register_stream("S", TimeVaryingRelation(SCHEMA, events))
        return eng.query(sql).sharded_dataflow()

    merged = merge_source_events(
        {"S": TimeVaryingRelation(SCHEMA, events)}
    )

    def per_event(flow):
        for event, source in merged:
            flow.process(event, source)

    def replayed(flow):
        for _ in flow.replay(merged):
            pass

    assert _finished(flow_on("sync"), per_event) == expected
    assert _finished(flow_on("sync"), replayed) == expected
    for backend in ("sync", "processes"):
        result = flow_on(backend).run()
        assert (
            result.changes, result.watermarks.as_pairs(), result.last_ptime
        ) == expected, backend

    # Crash in the middle: the cut carries no changelog (the caller
    # keeps it), the restored flow finishes with the same one.
    first = flow_on("sync")
    consumed = 0
    for consumed in first.replay(merged):
        if consumed >= int(len(merged) * cut):
            break
    blob = first.checkpoint(histories=False)
    history = {oid: first.output_slice_of(oid) for oid in first.output_ids()}
    del first
    recovered = flow_on("sync")
    recovered.restore(blob, histories=history)
    assert _finished(
        recovered, lambda flow: [None for _ in flow.replay(merged[consumed:])]
    ) == expected


@pytest.mark.parametrize("shards", [1, 3])  # 1: the serial flow
@settings(max_examples=15, deadline=None)
@given(
    events=event_histories(bursty=True),
    sql=st.sampled_from(QUERIES),
    two_phase=st.sampled_from(["off", "auto"]),
    batch_size=st.sampled_from([1, 7, 64]),
    carried=st.booleans(),  # in the blob, or kept by the caller as segments
    second_cut=st.booleans(),
    cuts=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
def test_restore_then_cut_again_then_read_yields_the_uninterrupted_changelog(
    events, sql, shards, two_phase, batch_size, carried, second_cut, cuts
):
    """Checkpoint mid-stream → restore into a fresh flow → feed the rest
    → read; and the same with a second checkpoint taken from the
    *restored* flow before any read (so the second blob is built from
    adopted segments plus a fresh tail).  Values, ``ptime``, kinds and
    watermarks equal the uninterrupted flow's."""
    merged = merge_source_events({"S": TimeVaryingRelation(SCHEMA, events)})

    def fresh():
        eng = StreamEngine(
            config=ExecutionConfig(
                parallelism=shards,
                backend="sync",
                two_phase=two_phase,
                batch_size=batch_size,
            )
        )
        eng.register_stream("S", TimeVaryingRelation(SCHEMA, events))
        query = eng.query(sql)
        return query.sharded_dataflow() if shards > 1 else query.dataflow()

    def feed(flow, upto, start=0):
        for consumed in flow.replay(merged[start:]):
            if start + consumed >= upto:
                return start + consumed
        return len(merged)

    def cut_and_restore(flow):
        blob = flow.checkpoint(histories=carried)
        kept = None if carried else {
            oid: flow.output_segments_of(oid) for oid in flow.output_ids()
        }
        for stored in pickle.loads(blob)["outputs"].values():
            history = stored["merged" if shards > 1 else "changes"]
            if carried:  # one (kinds, values, ptimes) triple, as ever
                assert type(history) is tuple and len(history[0]) == stored["size"]
            else:
                assert history is None
        restored = fresh()
        restored.restore(blob, histories=kept)
        return restored

    def outcome(flow):
        result = flow.finish()
        return result.changes, result.watermarks.as_pairs(), result.last_ptime

    uninterrupted = fresh()
    feed(uninterrupted, len(merged))
    expected = outcome(uninterrupted)

    first, second = sorted(int(len(merged) * cut) for cut in cuts)
    flow = fresh()
    at = feed(flow, first)
    flow = cut_and_restore(flow)
    if second_cut:
        at = feed(flow, second, at)
        flow = cut_and_restore(flow)
    feed(flow, len(merged), at)
    assert outcome(flow) == expected
