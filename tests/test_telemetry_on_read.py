"""Root telemetry derived on read equals the eagerly recorded one.

A root watermark step only notes where the output's log ended and the
watermark it leaves; the latency samples are derived from those notes
when somebody reads the telemetry (or a cut or a take needs them
settled; a late joiner's graft adopts them still owed).  The referee is an eager recorder built
here, outside the engine's settle path: every batch that reaches an
output's log is recorded on arrival, at the root watermark in effect
— what the engine did at each watermark step before samples were
derived on read.  Its histograms must equal what a read returns, in
every setting that moves a log or a watermark: serial at batch sizes 1
and 64, sharded on both drivers single- and two-phase, a cut then a
resume, a late joiner's graft, a watermark at the instant of rows, and
a read in mid-stream followed by more input.
"""

import random

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, rm, wm
from repro.core.codec import OpenRun, SegmentedLog, encode_changes
from repro.exec.executor import OutputChannel, merge_source_events
from repro.obs.telemetry import RunTelemetry
from repro.service import StandingQueryService

SCHEMA = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])
SECOND = 1_000
SQL = (
    "SELECT T.k, T.wend, COUNT(*) AS n, MAX(T.v) AS high "
    "FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '10' SECOND) T GROUP BY T.k, T.wend"
)
SEEDS = (1, 2, 3)


def generated(seed: int, burst: int = 8, events: int = 600,
              same_instant: bool = False) -> list:
    """Rows in bursts of ``burst`` per instant — some late, some
    retracted — with a watermark every 40 events; ``same_instant`` puts
    each watermark at the instant of the rows around it."""
    rng = random.Random(seed)
    out, live = [], []
    ptime, mark = 1_000_000, 0
    for n in range(events):
        if n % burst == 0:
            ptime += SECOND
        if n % 40 == 39:
            mark = max(mark, ptime - 1_000_000 - 4 * SECOND)
            out.append(wm(ptime if same_instant else ptime + 1, mark))
            if not same_instant:
                ptime += SECOND
            continue
        if live and rng.random() < 0.1:
            out.append(rm(ptime, live.pop(rng.randrange(len(live)))))
            continue
        late = rng.random() < 0.05
        ts = ptime - 1_000_000 - rng.randrange(4 * SECOND) - (30 * SECOND if late else 0)
        row = (rng.randrange(6), max(0, ts), rng.choice([None, *range(50)]))
        live.append(row)
        out.append(ins(ptime, row))
    return out


class Eager:
    """The eager reference: per output log, every batch that reaches it
    noted on arrival with the root watermark in effect (keyed by the log
    object, so a late joiner's adopted history keeps its notes), and
    recorded — by the real ``record_emit_run``, batch by batch — when
    :meth:`of` is asked.

    The engine delivers through its own generated fan-outs; the notes
    are taken where a batch lands: every log's live tail is a list
    whose ``extend`` notes the batch for the channel that reads the log
    (channels take every log through ``OutputChannel.adopt``), and a
    catch-up's open run notes what it takes and keeps it encoded — not
    derived from the steps the engine's settle path reads."""

    def __init__(self, monkeypatch):
        self.by_log: dict[int, tuple] = {}
        self.record = RunTelemetry.record_emit_run
        readers: dict[int, tuple] = {}  # id(log) -> (log, the channel reading it)
        by_log = self.by_log

        def note(tail, rows) -> None:
            """Note ``rows`` (changes, or a columnar batch) landing in
            ``tail``, as their row and ptime vectors."""
            log, channel = readers.get(id(tail.log), (None, None))
            if log is tail.log:
                _, values, ptimes = encode_changes(rows)
                _, notes = by_log.setdefault(id(log), (log, []))
                notes.append((
                    list(values), list(ptimes),
                    channel.completion, channel.watermarks.current,
                ))

        class NotingTail(list):
            __slots__ = ("log",)

            def extend(self, rows):
                note(self, rows)
                list.extend(self, rows)

            def __reduce__(self):  # ships (to a forked shard) as a list
                return list, (list(self),)

        class NotingRun(OpenRun):
            """A catch-up's open run, noted and still kept encoded."""

            __slots__ = ("log",)

            def extend(self, rows):
                note(self, rows)
                OpenRun.extend(self, rows)

        slot = SegmentedLog.tail

        def set_tail(log, rows):
            tail = NotingRun() if isinstance(rows, OpenRun) else NotingTail(rows)
            tail.log = log
            slot.__set__(log, tail)

        monkeypatch.setattr(SegmentedLog, "tail", property(slot.__get__, set_tail))
        adopt = OutputChannel.adopt

        def adopting(channel, log, *history):
            readers[id(log)] = (log, channel)
            adopt(channel, log, *history)

        monkeypatch.setattr(OutputChannel, "adopt", adopting)

    def of(self, flow, output_id: str = "main") -> RunTelemetry:
        telemetry = RunTelemetry()
        _, notes = self.by_log.get(id(flow._outputs[output_id].log), (None, []))
        for note in notes:
            self.record(telemetry, *note)
        return telemetry


@pytest.fixture
def eager(monkeypatch):
    return Eager(monkeypatch)


@pytest.fixture
def records(monkeypatch):
    """Counts ``record_emit_run`` calls (installed after ``eager``
    captured the real method, so the reference is not counted)."""
    calls = []
    real = RunTelemetry.record_emit_run

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(RunTelemetry, "record_emit_run", counting)
    return calls


def engine(events, config=None) -> StreamEngine:
    eng = StreamEngine(config=config)
    eng.register_stream("S", TimeVaryingRelation(SCHEMA, events))
    return eng


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("same_instant", [False, True], ids=["apart", "same-instant"])
@pytest.mark.parametrize("batch_size", [1, 64])
def test_serial_run_reads_the_eager_samples(eager, records, batch_size,
                                            same_instant, seed):
    """Nothing is recorded inside ``run()``; the first read of the
    result's telemetry derives exactly the eager samples."""
    events = generated(seed, same_instant=same_instant)
    flow = engine(events, ExecutionConfig(batch_size=batch_size)).query(SQL).dataflow()
    result = flow.run()
    assert records == []
    assert result.metrics.telemetry.snapshot() == eager.of(flow).snapshot()
    assert result.metrics.telemetry.watermark_lag.count > 0
    assert records, "the read derived the samples"


@pytest.mark.parametrize("two_phase", ["off", "auto"])
@pytest.mark.parametrize("backend", ["sync", "processes"])
def test_sharded_run_reads_the_serial_eager_samples(eager, backend, two_phase):
    """Merged over shards (or read off the combine flow) the telemetry
    is the serial run's, sample for sample."""
    events = generated(SEEDS[0])
    serial = engine(events, ExecutionConfig(batch_size=64)).query(SQL).dataflow()
    serial.run()
    config = ExecutionConfig(
        parallelism=2, backend=backend, two_phase=two_phase, batch_size=64
    )
    sharded = engine(events, config).query(SQL)
    assert sharded.partition_decision().partitionable
    result = sharded.run()
    assert result.metrics.telemetry.snapshot() == eager.of(serial).snapshot()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("batch_size", [1, 64])
def test_read_mid_stream_then_more_input(eager, records, batch_size, seed):
    """A read settles what is owed; what arrives after it is owed
    again, and the next read adds exactly that."""
    events = generated(seed)
    flow = engine(events, ExecutionConfig(batch_size=batch_size)).query(SQL).dataflow()
    merged = [(event, "S") for event in events]
    done = 0
    for upto in (len(merged) // 3, 2 * len(merged) // 3, len(merged)):
        for event, source in merged[done:upto]:
            flow.process(event, source)
        done = upto
        assert records == []
        assert flow.telemetry_of("main").snapshot() == eager.of(flow).snapshot()
        records.clear()


@pytest.mark.parametrize("batch_size", [1, 64])
def test_cut_then_resume(eager, records, batch_size):
    """A cut settles the samples owed and stores them; the resumed
    flow's later samples are owed until read — the two add up to the
    uninterrupted eager record."""
    events = generated(SEEDS[1])
    query = engine(events, ExecutionConfig(batch_size=batch_size)).query(SQL)
    merged = [(event, "S") for event in events]
    whole = query.dataflow()
    for event, source in merged:
        whole.process(event, source)
    for cut in (len(merged) // 4, len(merged) // 2 + 1):
        first = query.dataflow()
        for event, source in merged[:cut]:
            first.process(event, source)
        records.clear()
        blob = first.checkpoint()
        assert records, "the cut settled what was owed"
        second = query.dataflow()
        second.restore(blob)
        records.clear()
        for event, source in merged[cut:]:
            second.process(event, source)
        assert records == []
        expected = RunTelemetry.merged([eager.of(first), eager.of(second)])
        assert second.telemetry_of("main").snapshot() == expected.snapshot()
        assert expected.snapshot() == eager.of(whole).snapshot()


@pytest.mark.parametrize("batch_size", [1, 64])
def test_late_joiner_graft(eager, records, batch_size):
    """A late joiner grafts onto a resident flow with the history its
    donor replayed — born encoded, columnar at batch size 64: the
    donor's samples are owed when they are adopted, and so are the
    grafted output's later ones, until read."""
    events = generated(SEEDS[2])
    merged = merge_source_events({"S": TimeVaryingRelation(SCHEMA, events)})
    svc = StandingQueryService(
        config=ExecutionConfig(share_plans=True, batch_size=batch_size)
    )
    svc.register_stream("S", TimeVaryingRelation(SCHEMA))
    first = svc.submit("t", SQL + " EMIT STREAM").query_id
    for event, source in merged[: len(merged) // 2]:
        svc.ingest(event, source)
    late_sql = SQL.replace("MAX(T.v)", "MIN(T.v)") + " EMIT STREAM"
    late = svc.submit("t", late_sql).query_id
    queries = {q.query_id: q for q in svc.session._queries.values()}
    assert queries[first].flow is queries[late].flow  # grafted
    assert queries[late].describe()["history"]["live"] == 0
    records.clear()
    for event, source in merged[len(merged) // 2:]:
        svc.ingest(event, source)
    assert records == []
    for query_id in (first, late):
        query = queries[query_id]
        read = query.flow.telemetry_of(query.output_id)
        assert read.snapshot() == eager.of(query.flow, query.output_id).snapshot()
        assert read.watermark_lag.count > 0


def test_graft_adopts_the_donor_history_unsettled(records, tmp_path):
    """Submitting a late joiner settles nothing: the graft adopts the
    donor's raw telemetry, settle point and step notes.  After more
    input, and after a cut, the grafted output reads what a graft that
    settled on attach reads."""
    events = generated(SEEDS[0])
    merged = merge_source_events({"S": TimeVaryingRelation(SCHEMA, events)})
    half = len(merged) // 2
    late_sql = SQL.replace("MAX(T.v)", "MIN(T.v)") + " EMIT STREAM"
    grafts = []
    for settle_on_attach in (False, True):
        svc = StandingQueryService(config=ExecutionConfig(share_plans=True))
        svc.register_stream("S", TimeVaryingRelation(SCHEMA))
        first = svc.submit("t", SQL + " EMIT STREAM").query_id
        for event, source in merged[:half]:
            svc.ingest(event, source)
        records.clear()
        late = svc.submit("t", late_sql).query_id
        queries = {q.query_id: q for q in svc.session._queries.values()}
        query = queries[late]
        assert query.flow is queries[first].flow  # grafted
        assert query.flow._outputs[query.output_id].steps
        if settle_on_attach:
            query.flow.telemetry_of(query.output_id)
        else:
            assert records == []
        grafts.append((svc, query))

    def readings() -> list:
        out = []
        for _, query in grafts:
            read = query.flow.telemetry_of(query.output_id)
            out.append((
                read.emit_latency.snapshot(), read.watermark_lag.snapshot(),
                read.early_emits,
            ))
        return out

    for upto in (half + 40, len(merged)):
        for svc, _ in grafts:
            for event, source in merged[half:upto]:
                svc.ingest(event, source)
        half = upto
        unsettled, settled = readings()
        assert unsettled == settled
        assert unsettled[1]["count"] > 0
    for n, (svc, _) in enumerate(grafts):
        svc.checkpoint(str(tmp_path / str(n)))
    unsettled, settled = readings()
    assert unsettled == settled
