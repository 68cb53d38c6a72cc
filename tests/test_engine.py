"""Tests for the StreamEngine public API."""

import pytest

from repro import StreamEngine
from repro.core.errors import ValidationError
from repro.core.schema import Schema, SqlType, int_col, string_col, timestamp_col
from repro.core.times import t
from repro.core.tvr import TimeVaryingRelation

SCHEMA = Schema(
    [timestamp_col("ts", event_time=True), int_col("v"), string_col("k")]
)


@pytest.fixture
def engine():
    eng = StreamEngine()
    eng.register_table("T", SCHEMA, [(t("8:01"), 1, "a"), (t("8:02"), 2, "b")])
    return eng


class TestRegistration:
    def test_register_table_from_rows(self, engine):
        assert len(engine.query("SELECT * FROM T").table()) == 2

    def test_register_stream(self):
        eng = StreamEngine()
        tvr = TimeVaryingRelation(SCHEMA)
        tvr.insert(1, (t("8:00"), 1, "x"))
        eng.register_stream("S", tvr)
        assert eng.source("S") is tvr
        assert len(eng.query("SELECT * FROM S").table()) == 1

    def test_register_recorded_stream_as_table(self):
        eng = StreamEngine()
        tvr = TimeVaryingRelation.from_table(SCHEMA, [(t("8:00"), 1, "x")])
        eng.register_table("R", tvr)
        # non-event-time grouping is legal on the bounded registration
        rel = eng.query("SELECT k, COUNT(*) c FROM R GROUP BY k").table()
        assert rel.tuples == [("x", 1)]

    def test_name_lookup_case_insensitive(self, engine):
        assert len(engine.query("SELECT * FROM t").table()) == 2


class TestFunctions:
    def test_register_udf(self, engine):
        engine.register_function("TRIPLE", lambda x: 3 * x, SqlType.INT, 1)
        rel = engine.query("SELECT TRIPLE(v) x FROM T").table()
        assert sorted(rel.tuples) == [(3,), (6,)]

    def test_udf_null_propagates(self, engine):
        engine.register_function("TRIPLE", lambda x: 3 * x, SqlType.INT, 1)
        engine.register_table("N", SCHEMA, [(t("8:01"), None, "a")])
        rel = engine.query("SELECT TRIPLE(v) x FROM N").table()
        assert rel.tuples == [(None,)]

    def test_unknown_function(self, engine):
        with pytest.raises(ValidationError, match="unknown function"):
            engine.query("SELECT WIBBLE(v) FROM T")


class TestQueryLifecycle:
    def test_run_cached_until_source_grows(self):
        eng = StreamEngine()
        tvr = TimeVaryingRelation(SCHEMA)
        tvr.insert(1, (t("8:00"), 1, "x"))
        eng.register_stream("S", tvr)
        query = eng.query("SELECT * FROM S")
        assert len(query.table()) == 1
        tvr.insert(2, (t("8:01"), 2, "y"))
        assert len(query.table()) == 2  # cache refreshed

    def test_counting_a_source_does_not_copy_it(self, monkeypatch):
        """``run()`` fingerprints its cache on each source's event
        *count*: the only ``events()`` reads are the replay's own."""
        eng = StreamEngine()
        tvr = TimeVaryingRelation(SCHEMA)
        tvr.insert(1, (t("8:00"), 1, "x"))
        eng.register_stream("S", tvr)
        reads = []
        real = TimeVaryingRelation.events
        monkeypatch.setattr(
            TimeVaryingRelation, "events",
            lambda self, start=0: reads.append(start) or real(self, start),
        )
        query = eng.query("SELECT * FROM S")
        first = query.run()
        assert reads == [0]  # the replay
        assert query.run() is first and reads == [0]  # cached: no read at all
        tvr.insert(2, (t("8:01"), 2, "y"))
        assert len(query.run().changes) == 2 and reads == [0, 0]

    def test_stream_rejected_on_order_by(self, engine):
        query = engine.query("SELECT v FROM T ORDER BY v")
        with pytest.raises(ValidationError, match="stream"):
            query.stream()

    def test_table_accepts_clock_strings(self, engine):
        assert len(engine.query("SELECT * FROM T").table(at="8:30")) == 2

    def test_explain(self, engine):
        text = engine.explain("SELECT v FROM T WHERE v > 1")
        assert "Scan(T table)" in text

    def test_explain_verbose_shows_streaming_metadata(self, engine):
        text = engine.explain("SELECT ts, v FROM T WHERE v > 1", verbose=True)
        assert "bounded" in text
        assert "aligned=['ts']" in text
        assert "complete_when=['ts']<=wm" in text

    def test_stats(self, engine):
        stats = engine.query("SELECT v FROM T").stats()
        assert stats["changes"] == 2
        assert stats["late_dropped"] == 0
        assert stats["state_report"].total_rows == 0  # stateless query

    def test_stream_table_rendering(self, engine):
        rel = engine.query("SELECT v FROM T EMIT STREAM").stream_table()
        assert rel.schema.column_names() == ["v", "undo", "ptime", "ver"]
        assert len(rel) == 2

    def test_emit_property(self, engine):
        q = engine.query("SELECT v FROM T EMIT STREAM AFTER WATERMARK")
        assert q.emit.stream and q.emit.after_watermark
