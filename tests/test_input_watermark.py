"""The merged input watermark is an attribute, kept as the ports move.

``Operator.input_watermark`` is assigned where ``on_watermark`` merges
the input ports, and re-derived from the ports when a checkpoint is
restored (a cut holds the per-port list only, so its format did not
change).  Late-data cutoffs read it: the aggregate's generated row
entry once per batch, OVER, MATCH_RECOGNIZE and session operators per
row.  A stale value would move a late drop, so for every operator of
the plans ``tests/test_checkpoint_plane.py`` cuts — one per stateful
operator family — the attribute is checked against the merge of the
ports after every watermark step and after a checkpoint/restore round
trip, and the late drops are checked equal at ``batch_size`` 1 and 64.
"""

from collections import Counter

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.core.times import MIN_TIMESTAMP
from repro.core.tvr import TimeVaryingRelation, WatermarkEvent, ins
from repro.core.watermark import merge_watermarks
from repro.exec.executor import merge_source_events

from .test_checkpoint_plane import L, MINUTE, OPERATOR_SQL, R, outcome, two_streams

#: the families that drop late rows, by the operator that does
DROPPERS = {
    "aggregate": "AggregateOperator",
    "session": "SessionOperator",
    "over": "OverOperator",
    "match_recognize": "MatchRecognizeOperator",
}


def late_streams():
    """``two_streams``, plus one row on either side two minutes behind
    each watermark, just after it: late for every operator that drops."""
    streams = []
    for tvr, schema in zip(two_streams(), (L, R)):
        events = []
        for n, event in enumerate(tvr.events()):
            events.append(event)
            if isinstance(event, WatermarkEvent):
                ts = max(0, event.value - 2 * MINUTE)
                events.append(ins(event.ptime + 1_000, (n % 5, ts, 30 + n % 20)))
        streams.append(TimeVaryingRelation(schema, events))
    return streams


def late_query(name, batch_size=1):
    # (the other plans keep their inputs: a temporal join refuses a
    # left row behind its pruned versions, by design)
    left, right = late_streams() if name in DROPPERS else two_streams()
    engine = StreamEngine(config=ExecutionConfig(batch_size=batch_size))
    engine.register_stream("L", left)
    engine.register_stream("R", right)
    events = merge_source_events({"l": left, "r": right})
    return engine.query(OPERATOR_SQL[name]), events


def assert_merged(flow):
    for op in flow.operators:
        assert op.input_watermark == merge_watermarks(op._input_wms), op.name()


def watched(flow) -> Counter:
    """Check every operator's attribute after each of its watermark
    steps; returns the steps seen, per operator."""
    steps: Counter = Counter()
    for op in flow.operators:
        def on_watermark(port, value, ptime, op=op, step=op.on_watermark):
            out = step(port, value, ptime)
            assert op.input_watermark == merge_watermarks(op._input_wms)
            steps[op] += 1
            return out

        op.on_watermark = on_watermark
    return steps


def late_drops(flow) -> Counter:
    drops: Counter = Counter()
    for op in flow.operators:
        drops[type(op).__name__] += op.late_dropped
    return +drops


@pytest.mark.parametrize("name", sorted(OPERATOR_SQL))
def test_the_attribute_is_the_merge_after_every_watermark_step(name):
    drops = []
    for batch_size in (1, 64):
        query, _ = late_query(name, batch_size)
        flow = query.dataflow()
        steps = watched(flow)
        flow.run()
        assert set(steps) == set(flow.operators)
        assert_merged(flow)
        drops.append(late_drops(flow))
    assert drops[0] == drops[1]
    if name in DROPPERS:
        assert drops[0][DROPPERS[name]] > 0


@pytest.mark.parametrize("name", sorted(OPERATOR_SQL))
def test_a_restore_rederives_the_attribute(name):
    query, events = late_query(name)
    cut = len(events) * 3 // 5
    source = query.dataflow()
    steps = watched(source)
    for event, src in events[:cut]:
        source.process(event, src)
    assert steps
    restored = query.dataflow()
    restored.restore(source.checkpoint())
    assert_merged(restored)
    assert [op.input_watermark for op in restored.operators] == [
        op.input_watermark for op in source.operators
    ]
    assert max(op.input_watermark for op in restored.operators) > MIN_TIMESTAMP
    watched(restored)
    for event, src in events[cut:]:
        source.process(event, src)
        restored.process(event, src)
    assert outcome(restored) == outcome(source)
    assert late_drops(restored) == late_drops(source)
