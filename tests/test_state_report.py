"""Tests for state introspection and the watermark-contract diagnostic."""

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.core.errors import ExecutionError
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.times import t
from repro.core.tvr import TimeVaryingRelation
from repro.nexmark import paper_bid_stream
from repro.nexmark.queries import q7_paper

SCHEMA = Schema([timestamp_col("ts", event_time=True), int_col("v")])


class TestStateReport:
    @pytest.fixture
    def dataflow(self):
        engine = StreamEngine()
        engine.register_stream("Bid", paper_bid_stream())
        dataflow = engine.query(q7_paper()).dataflow()
        dataflow.run()
        return dataflow

    def test_totals_match_operator_sum(self, dataflow):
        report = dataflow.state_report()
        assert report.total_rows == dataflow.total_state_rows()
        assert report.total_rows == sum(
            op.retained_rows for op in report.operators
        )

    def test_expiry_surfaces(self, dataflow):
        report = dataflow.state_report()
        # the windowed join expired bids/aggregates past the watermark
        assert report.total_expired > 0

    def test_rendering_names_operators(self, dataflow):
        text = str(dataflow.state_report())
        assert "total retained rows" in text
        assert "Join" in text

    def test_late_drops_counted(self):
        tvr = TimeVaryingRelation(SCHEMA)
        tvr.insert(1, (t("8:01"), 1))
        tvr.advance_watermark(2, t("9:00"))
        tvr.insert(3, (t("8:02"), 2))  # late
        engine = StreamEngine()
        engine.register_stream("S", tvr)
        dataflow = engine.query(
            "SELECT TB.wend, COUNT(*) c FROM Tumble(data => TABLE(S), "
            "timecol => DESCRIPTOR(ts), dur => INTERVAL '10' MINUTES) TB "
            "GROUP BY TB.wend"
        ).dataflow()
        dataflow.run()
        assert dataflow.state_report().total_late_dropped == 1


ITEM_COUNTS = (
    "SELECT item, wend, COUNT(*) AS n FROM Tumble(data => TABLE(Bid), "
    "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) TB "
    "GROUP BY item, wend"
)


class TestStats:
    """``PreparedQuery.stats()`` reads the run ``run()`` made (and
    caches): one execution, and the report is of the flow that ran."""

    @pytest.fixture
    def runs(self, monkeypatch):
        from repro.exec.executor import Dataflow
        from repro.runtime import ShardedDataflow

        calls = []
        for kind in (Dataflow, ShardedDataflow):
            real = kind.run

            def spy(flow, *args, _real=real, **kwargs):
                calls.append(type(flow).__name__)
                return _real(flow, *args, **kwargs)

            monkeypatch.setattr(kind, "run", spy)
        return calls

    def engine(self, **config):
        engine = StreamEngine(config=ExecutionConfig(**config))
        engine.register_stream("Bid", paper_bid_stream())
        return engine

    def test_stats_runs_the_query_once(self, runs):
        query = self.engine().query(ITEM_COUNTS)
        query.run()
        assert runs == ["Dataflow"]
        stats = query.stats()
        assert runs == ["Dataflow"]
        fresh = self.engine().query(ITEM_COUNTS).dataflow()
        fresh.run()
        assert stats["state_report"] == fresh.state_report()

    def test_a_sharded_report_names_its_shards(self, runs):
        query = self.engine(parallelism=2, backend="sync").query(ITEM_COUNTS)
        assert query.partition_decision().partitionable
        report = query.stats()["state_report"]
        assert runs == ["ShardedDataflow"]
        names = [op.name for op in report.operators]
        assert "ScanOperator ×2 shards" in names
        flow = query.sharded_dataflow()
        flow.run()
        assert report == flow.state_report()


class TestContractViolations:
    def test_sound_stream_has_none(self):
        assert paper_bid_stream().contract_violations() == []

    def test_violation_reported(self):
        tvr = TimeVaryingRelation(SCHEMA)
        tvr.advance_watermark(1, t("9:00"))
        tvr.insert(2, (t("8:30"), 1))  # behind the asserted watermark
        (violation,) = tvr.contract_violations()
        assert "watermark" in violation

    def test_boundary_row_is_tolerated(self):
        """The paper's own dataset has row C arrive exactly at the
        watermark (bidtime 8:05, WM 8:05) and includes it in every
        result, so the bound is read as inclusive."""
        tvr = TimeVaryingRelation(SCHEMA)
        tvr.advance_watermark(1, t("9:00"))
        tvr.insert(2, (t("9:00"), 1))
        assert tvr.contract_violations() == []

    def test_explicit_column_required_when_ambiguous(self):
        plain = Schema([int_col("a"), int_col("b")])
        tvr = TimeVaryingRelation(plain)
        with pytest.raises(ExecutionError, match="time_column"):
            tvr.contract_violations()

    def test_explicit_column(self):
        tvr = TimeVaryingRelation(SCHEMA)
        tvr.insert(1, (t("8:00"), 1))
        assert tvr.contract_violations("ts") == []


class TestShellState:
    def test_state_command(self, tmp_path):
        from repro.io import format_script
        from repro.shell import Shell

        path = tmp_path / "bids.script"
        path.write_text(format_script(paper_bid_stream()))
        shell = Shell()
        shell.feed(f"\\load Bid {path}")
        out = shell.feed("\\state SELECT * FROM Bid;")
        assert "total retained rows" in out
