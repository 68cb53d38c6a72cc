"""Runs span instants.

A serial flow's replay feeds one source's rows in runs that span
processing-time instants, up to the next watermark, wherever no timer
can come due inside the run and the flow does not compact per instant
(``Dataflow.run_span_reason``); a sharded flow's runs stay per instant.
The changelog and the watermark track are those of per-event
execution; only the number of deliveries changes.
"""

import math

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.exec.compile import (
    COALESCE_KEEPS_INSTANTS,
    SHARDS_KEEP_INSTANTS,
    TIMERS_KEEP_INSTANTS,
)
from repro.exec.executor import Dataflow, event_runs, merge_source_events

SCHEMA = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])
MINUTE = 60_000

TUMBLE_SQL = (
    "SELECT k, wend, COUNT(*) AS n, SUM(v) AS s FROM Tumble(data => "
    "TABLE(S), timecol => DESCRIPTOR(ts), dur => INTERVAL '1' MINUTE) T "
    "GROUP BY k, wend"
)
STATELESS_SQL = "SELECT k, v + 1 AS w FROM S WHERE v % 3 <> 0"
#: a ``CURRENT_TIME`` tail: its temporal filter schedules timers
TAIL_SQL = "SELECT k, v FROM S WHERE ts > CURRENT_TIME - INTERVAL '10' MINUTE"


def burst_one(rows=300, every=50, other=False):
    """One row per instant, out of order, some behind the watermark, and
    a watermark every ``every`` rows.  ``other`` interleaves rows and
    watermarks of a source ``R`` no query here scans."""
    events, others, ptime, mark = [], [], 1_000_000, 0
    for i in range(rows):
        ptime += 1_000
        late = -2 * MINUTE if i % 23 == 5 else 0
        events.append(ins(ptime, (i % 7, max(0, mark + late + i % 5 * 15_000), i)))
        if other and i % 3 == 1:
            others.append(ins(ptime + 500, (i, ptime, i)))
        if i % every == every - 1:
            mark += MINUTE
            events.append(wm(ptime + 700, mark))
            if other:
                others.append(wm(ptime + 700, mark))
            ptime += 1_000
    events.append(wm(ptime + 1_000, 1 << 60))
    return events, others


def engine_for(events, others=(), **config):
    config.setdefault("backend", "sync")
    engine = StreamEngine(config=ExecutionConfig(**config))
    engine.register_stream("S", TimeVaryingRelation(SCHEMA, events))
    engine.register_stream("R", TimeVaryingRelation(SCHEMA, list(others)))
    return engine


def row_deliveries(monkeypatch) -> list[int]:
    """The size of every delivery of ``S`` rows: each run passes the one
    delivery body, ``Dataflow._deliver``, once."""
    sizes = []
    real = Dataflow._deliver

    def counted(flow, events, source, seqs=None):
        if source == "s":  # (flows key their sources in lower case)
            sizes.append(len(events))
        return real(flow, events, source, seqs)

    monkeypatch.setattr(Dataflow, "_deliver", counted)
    return sizes


def row_runs(flow) -> list[list]:
    events = merge_source_events(flow._sources)
    return [
        run for _, run, source in event_runs(flow, events)
        if source == "s" and hasattr(run[0], "change")
    ]


@pytest.mark.parametrize("other", [False, True], ids=["alone", "interleaved"])
@pytest.mark.parametrize(
    "sql", [TUMBLE_SQL, STATELESS_SQL], ids=["tumble", "stateless"]
)
def test_a_burst_one_replay_is_delivered_up_to_each_watermark(
    monkeypatch, sql, other
):
    events, others = burst_one(other=other)
    rows = sum(1 for event in events if hasattr(event, "change"))
    marks = len(events) - rows
    per_event = engine_for(events, others, batch_size=1).query(sql).run()
    sizes = row_deliveries(monkeypatch)
    result = engine_for(events, others, batch_size=64).query(sql).run()
    assert result.changes == per_event.changes
    assert result.watermarks.as_pairs() == per_event.watermarks.as_pairs()
    assert result.last_ptime == per_event.last_ptime
    assert result.late_dropped == per_event.late_dropped
    assert sum(sizes) == rows
    assert len(sizes) <= math.ceil(rows / 64) + marks
    assert max(sizes) == 50  # a whole stretch between two watermarks


def test_absorbed_events_past_the_last_row_open_the_next_run():
    """An event of an unscanned source after the run's last row, at a
    later instant, would move the clock past it: it is not consumed."""
    events = [ins(10, (1, 0, 1)), ins(20, (1, 0, 2)), wm(40, 5)]
    others = [ins(30, (9, 0, 9))]
    flow = engine_for(events, others, batch_size=64).query(TUMBLE_SQL).dataflow()
    runs = event_runs(flow, merge_source_events(flow._sources))
    assert [(stop, len(run), source) for stop, run, source in runs] == [
        (2, 2, "s"), (3, 1, "r"), (4, 1, "s"),
    ]
    flow.run()
    assert flow.result().last_ptime == 40


@pytest.mark.parametrize("reason", ["timer", "coalesce", "sharded"])
def test_runs_stay_per_instant_for_each_reason(monkeypatch, reason):
    events, _ = burst_one()
    rows = sum(1 for event in events if hasattr(event, "change"))
    config = dict(batch_size=64)
    sql = TAIL_SQL if reason == "timer" else TUMBLE_SQL
    if reason == "coalesce":
        config["coalesce_updates"] = True
    if reason == "sharded":
        config.update(parallelism=2, two_phase="auto")
    query = engine_for(events, **config).query(sql)
    flow = query.sharded_dataflow() if reason == "sharded" else query.dataflow()
    assert flow.run_span_reason() == {
        "timer": TIMERS_KEEP_INSTANTS,
        "coalesce": COALESCE_KEEPS_INSTANTS,
        "sharded": SHARDS_KEEP_INSTANTS,
    }[reason]
    assert [len(run) for run in row_runs(flow)] == [1] * rows
    if reason != "sharded":
        sizes = row_deliveries(monkeypatch)
        for _ in flow.replay(merge_source_events(flow._sources)):
            pass
        assert sizes == [1] * rows


@pytest.mark.parametrize("sql", [TUMBLE_SQL, TAIL_SQL], ids=["tumble", "tail"])
@pytest.mark.parametrize(
    "config",
    [
        dict(batch_size=64),
        dict(batch_size=64, coalesce_updates=True),
        dict(batch_size=64, parallelism=2),
        dict(batch_size=1),
    ],
    ids=["plain", "coalesce", "sharded", "batch1"],
)
def test_explain_says_the_run_shape_the_flow_reports(sql, config):
    query = engine_for(burst_one()[0], **config).query(sql)
    lines = [
        line.strip() for line in query.explain(mode="physical").splitlines()
        if "runs:" in line
    ]
    sharded = config.get("parallelism", 1) > 1
    if sharded and query.partition_decision().partitionable:
        flow = query.sharded_dataflow()
        assert flow.run_span_reason() == SHARDS_KEEP_INSTANTS
        split = flow.run_split_reason()
        assert lines == [
            "runs: per instant, sequence-tagged" if split is None
            else f"runs: split at sequence gaps — {split}"
        ]
        return
    flow = query.dataflow()
    if flow.batch_size == 1:
        assert lines == []  # fed one event at a time
        return
    reason = flow.run_span_reason()
    if reason is not None:
        assert lines == [f"runs: per instant — {reason}"]
        return
    assert lines == ["runs: across instants, up to the next watermark"]
