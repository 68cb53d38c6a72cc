"""A late joiner's catch-up history is born encoded.

``SessionManager._catch_up`` replays the recorded history into a serial
flow whose output logs each hold an open run
(:meth:`~repro.core.codec.SegmentedLog.open_run`): an aggregate's
vector fold hands its batch over as vectors and no ``Change`` is built
for history that sits behind the joiner's cursor.  At the end of the
replay the run is sealed as one segment, so after ``submit``
``describe()["history"]`` is ``{"sealed": N, "live": 0}``.

What must not change with it, checked after the submit and again after
more ingest, on a private flow (``share_plans=False``), on a graft
through a donor, and on a graft that shares its root:

* no ``Change`` is built for the history on the columnar path: the
  submit reads no batch's row view;
* the changelog, and a cut taken right after the join restores it;
* the joiner's emit-latency and watermark-lag histograms, against a
  reference flow of the same query fed event by event, whose history
  stays ``Change`` objects in its tail;
* settling them decodes nothing: no ``decode_changes`` call and no
  ``SegmentedLog.slice`` below a log's sealed base.
"""

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.core import codec
from repro.core.codec import SegmentedLog
from repro.core.colbatch import ColumnarBatch
from repro.core.tvr import TimeVaryingRelation
from repro.service import StandingQueryService

from .test_mqo import (
    Q_MAX, Q_SUM, Q_SUM_ALIASED, SCHEMA, make_events, oneshot_changes,
    query_changes, service_with_source,
)

EVENTS = make_events(120)
HALF = 60

#: (share_plans, the joiner's SQL): a private flow, a graft through a
#: donor (shares the window, brings its own aggregate), a root share
JOINS = {
    "private": (False, Q_MAX),
    "graft": (True, Q_MAX),
    "root-share": (True, Q_SUM_ALIASED),
}


@pytest.fixture
def decodes(monkeypatch):
    """Every decode of a sealed segment, from installation on."""
    calls = []
    real_decode, real_slice = codec.decode_changes, SegmentedLog.slice

    def decode(encoded):
        calls.append("decode_changes")
        return real_decode(encoded)

    def below_base(log, start=0):
        if start < log.base:
            calls.append("slice below base")
        return real_slice(log, start)

    monkeypatch.setattr(codec, "decode_changes", decode)
    monkeypatch.setattr(SegmentedLog, "slice", below_base)
    return calls


def telemetry(flow, output_id: str) -> dict:
    return flow.telemetry_of(output_id).snapshot()


def reference_flow(sql: str, config: ExecutionConfig):
    """A flow of ``sql`` alone over a source fed event by event: its
    output history stays objects in its tail."""
    engine = StreamEngine(config=config)
    engine.register_stream("S", TimeVaryingRelation(SCHEMA))
    return engine.query(sql).dataflow()


def joined(join: str, batch_size: int, monkeypatch, **knobs):
    """A service with ``Q_SUM`` resident over the first half of the
    history, and the joiner of ``join`` submitted after it.  Columnar
    (``batch_size`` 64), the submit reads no batch's row view: the
    aggregate's batches reach the output log as vectors."""
    share_plans, sql = JOINS[join]
    config = ExecutionConfig(share_plans=share_plans, batch_size=batch_size, **knobs)
    svc = service_with_source(config=config)
    first = svc.submit("alice", Q_SUM)
    for event in EVENTS[:HALF]:
        svc.ingest(event, "S")
    row_views = []
    with monkeypatch.context() as patch:
        real = ColumnarBatch.to_changes
        patch.setattr(
            ColumnarBatch, "to_changes", lambda b: row_views.append(b) or real(b)
        )
        late = svc.submit("bob", sql)
    assert (late.flow is first.flow) == share_plans
    assert row_views == [] or batch_size == 1
    return svc, late, config, sql


@pytest.mark.parametrize("batch_size", [1, 64])
@pytest.mark.parametrize("join", sorted(JOINS))
def test_the_catch_up_history_is_sealed_and_settles_as_the_reference(
    decodes, join, batch_size, monkeypatch
):
    svc, late, config, sql = joined(join, batch_size, monkeypatch)
    history = oneshot_changes(EVENTS[:HALF], sql)
    assert late.describe()["history"] == {"sealed": len(history), "live": 0}
    assert late.cursor == len(history)
    reference = reference_flow(sql, config)
    for event in EVENTS[:HALF]:
        reference.process(event, "S")
    assert telemetry(late.flow, late.output_id) == telemetry(reference, "main")
    assert late.flow.telemetry_of(late.output_id).watermark_lag.count > 0
    for event in EVENTS[HALF:]:
        svc.ingest(event, "S")
        reference.process(event, "S")
    assert telemetry(late.flow, late.output_id) == telemetry(reference, "main")
    assert decodes == []
    assert query_changes(late) == oneshot_changes(EVENTS, sql)


@pytest.mark.parametrize("batch_size", [1, 64])
@pytest.mark.parametrize("join", sorted(JOINS))
def test_a_cut_right_after_a_late_join_restores_its_changelog(
    tmp_path, join, batch_size, monkeypatch
):
    svc, late, config, sql = joined(
        join, batch_size, monkeypatch, checkpoint_dir=str(tmp_path / "ckpt")
    )
    svc.checkpoint()
    resumed = StandingQueryService(config=config)
    assert resumed.resume() == 2
    again = resumed.session.get(late.query_id)
    assert again.describe()["history"] == late.describe()["history"]
    for event in EVENTS[HALF:]:
        svc.ingest(event, "S")
        resumed.ingest(event, "S")
    assert query_changes(again) == query_changes(late) == oneshot_changes(EVENTS, sql)
    assert telemetry(again.flow, again.output_id) == telemetry(late.flow, late.output_id)
