"""The unified explain API: one renderer behind every entry point.

``StreamEngine.explain``, ``PreparedQuery.explain``, the shell's
``\\explain [MODE]`` and the SQL ``EXPLAIN [...]`` spellings all route
through ``repro.explain.render_explain``, so their output can never
drift apart.
"""

import re

import pytest

from repro import ExecutionConfig, StreamEngine, ValidationError, parse_explain
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.shell import Shell

SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)

MINUTE = 60_000

SQL = """
    SELECT k, wend, SUM(v) AS total
    FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts),
                dur => INTERVAL '2' MINUTE) TS
    GROUP BY k, wend
"""


def make_engine(parallelism=4, two_phase="auto", batch_size=None):
    engine = StreamEngine(
        config=ExecutionConfig(
            parallelism=parallelism,
            backend="sync",
            two_phase=two_phase,
            batch_size=batch_size,
        )
    )
    events = [
        ins(1_000_000 + i, (i % 3, (i % 2) * MINUTE, i)) for i in range(12)
    ] + [wm(2_000_000, 1 << 60)]
    engine.register_stream("S", TimeVaryingRelation(SCHEMA, events))
    return engine


class TestModes:
    def test_logical_is_the_historical_text(self):
        engine = make_engine()
        text = engine.explain(SQL)
        assert "Aggregate(" in text
        assert "Runtime: sharded(4)" in text
        assert "Physical:" not in text

    def test_physical_shows_the_phase_split(self):
        text = make_engine().explain(SQL, mode="physical")
        assert "Physical: two-phase aggregation (replay payloads)" in text
        assert "merge stage:" in text
        assert "CombineAggregate(" in text
        assert "each of 4 shards:" in text
        assert "PartialAggregate(" in text

    def test_physical_reports_single_phase_reason(self):
        text = make_engine(two_phase="off").explain(SQL, mode="physical")
        assert "Physical: single-phase" in text
        assert "CombineAggregate(" not in text

    def test_costs_mode_is_refused(self):
        """The shape has no cost inputs to show: ``costs`` is an
        unknown mode, and the error names the modes there are."""
        with pytest.raises(ValidationError) as info:
            make_engine().explain(SQL, mode="costs")
        assert "'costs'" in str(info.value)
        assert "logical, physical, analyze" in str(info.value)
        with pytest.raises(ValidationError) as info:
            parse_explain(f"EXPLAIN (COSTS) {SQL}")
        assert "unknown EXPLAIN mode 'costs'" in str(info.value)
        assert "logical, physical, analyze" in str(info.value)

    def test_analyze_appends_runtime_counters(self):
        text = make_engine().explain(SQL, mode="analyze")
        assert "Aggregate(" in text
        assert "rows_in" in text

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="unknown explain mode"):
            make_engine().explain(SQL, mode="quantum")


class TestParity:
    def test_engine_and_query_render_identically(self):
        engine = make_engine()
        query = engine.query(SQL)
        for mode in ("logical", "physical"):
            assert engine.explain(SQL, mode=mode) == query.explain(mode=mode)


class TestParseExplain:
    def test_plain_and_analyze(self):
        assert parse_explain("EXPLAIN SELECT 1") == ("logical", "SELECT 1")
        assert parse_explain("explain analyze SELECT 1") == (
            "analyze",
            "SELECT 1",
        )

    def test_mode_parentheticals(self):
        assert parse_explain("EXPLAIN (PHYSICAL) SELECT 1") == (
            "physical",
            "SELECT 1",
        )
        assert parse_explain("EXPLAIN ( physical ) SELECT 1") == (
            "physical",
            "SELECT 1",
        )

    def test_not_an_explain(self):
        assert parse_explain("SELECT 1") is None
        assert parse_explain("EXPLAINER SELECT 1") is None

    def test_unknown_mode_raises(self):
        with pytest.raises(ValidationError, match="unknown EXPLAIN mode"):
            parse_explain("EXPLAIN (QUANTUM) SELECT 1")

    def test_analyze_with_parenthetical_rejected(self):
        with pytest.raises(ValidationError, match="no mode parenthetical"):
            parse_explain("EXPLAIN ANALYZE (PHYSICAL) SELECT 1")


class TestShell:
    @pytest.fixture
    def shell(self, tmp_path):
        sh = Shell(
            engine=StreamEngine(
                config=ExecutionConfig(
                    parallelism=2, backend="sync", two_phase="auto"
                )
            )
        )
        sh.engine.register_stream(
            "S",
            TimeVaryingRelation(
                SCHEMA,
                [ins(1_000_000, (1, 0, 5)), wm(2_000_000, 1 << 60)],
            ),
        )
        return sh

    def test_explain_default_mode(self, shell):
        out = shell.feed(f"\\explain {SQL};")
        assert "Scan(S stream)" in out
        assert "Physical:" not in out

    def test_explain_mode_token(self, shell):
        out = shell.feed(f"\\explain physical {SQL};")
        assert "Physical: two-phase aggregation" in out
        out = shell.feed(f"\\explain analyze {SQL};")
        assert "rows_in" in out

    def test_explain_usage_without_sql(self, shell):
        out = shell.feed("\\explain physical")
        assert "usage" in out.lower()

    def test_sql_explain_prefixes(self, shell):
        out = shell.feed(f"EXPLAIN (PHYSICAL) {SQL};")
        assert "Physical: two-phase aggregation" in out
        out = shell.feed(f"EXPLAIN {SQL};")
        assert "Scan(S stream)" in out and "Physical:" not in out

    def test_sql_explain_unknown_mode_reports_error(self, shell):
        out = shell.feed("EXPLAIN (QUANTUM) SELECT 1;")
        assert "unknown EXPLAIN mode" in out

    def test_an_unknown_mode_word_is_refused_like_the_sql_spelling(self, shell):
        """``\\explain costs q`` is ``EXPLAIN (COSTS) q``: one refusal
        naming the modes, not a parse error of ``costs`` as SQL."""
        backslash = shell.feed(f"\\explain costs {SQL};")
        spelled = shell.feed(f"EXPLAIN (COSTS) {SQL};")
        assert backslash == spelled == (
            "error: unknown EXPLAIN mode 'costs'; expected one of "
            "logical, physical, analyze"
        )


class TestColumnarSection:
    def test_two_phase_tags_name_the_operators_that_run(self):
        """The merge half is read off its combine flow: line for line
        (root first, a chain), a tag is printed exactly when the
        operator consumes column batches or is a fused pipeline, and
        the node is the operator's kind."""
        from repro.exec.operators.pipeline import PipelineOperator

        engine = StreamEngine(
            config=ExecutionConfig(
                parallelism=4, backend="sync", two_phase="auto", batch_size=64
            )
        )
        engine.register_stream("S", TimeVaryingRelation(SCHEMA))
        query = engine.query(
            "SELECT k, wend, SUM(v) * 2 AS twice FROM Tumble(data => TABLE(S), "
            "timecol => DESCRIPTOR(ts), dur => INTERVAL '2' MINUTE) TS "
            "GROUP BY k, wend"
        )
        text = query.explain(mode="physical")
        section = text[text.index("Columnar: on"):]
        merge = section.split("  merge stage:\n")[1]
        merge = merge.split("  each of 4 shards:\n")[0].splitlines()
        operators = query.sharded_dataflow().combines["main"].operators[::-1]
        # (``SUM(v) * 2`` computes: that Project is not absorbed)
        assert len(merge) == len(operators) >= 2
        for line, op in zip(merge, operators):
            node = re.match(r"[A-Za-z]+", line.strip()).group()
            assert node == type(op).__name__.removesuffix("Operator"), line
            assert ("[columnar]" in line) == op.supports_columnar, line
            assert ("[fused:" in line) == isinstance(op, PipelineOperator), line

    def test_absorbed_selections_and_the_tumble_step_are_shown(self):
        """A column-selecting Project shows where it went — the merge
        half is one combine aggregate emitting ``out``, the shard half a
        partial aggregate reading ``in`` — and the tumble runs as a step
        of its pipeline, spec and all."""
        text = make_engine(batch_size=64).explain(SQL, mode="physical")
        section = text[text.index("Columnar: on"):].splitlines()
        assert section[1:] == [
            "  merge stage:",
            "    CombineAggregate(group=[$0, $1, $2], "
            "aggs=[SUM($3) AS $sum0], out=[$0, $1, $3])",
            "  each of 4 shards:",
            "    PartialAggregate(group=[$2, $1, $0], aggs=[SUM($4) AS $sum0], "
            "in=[$2, $1, $0, $4]) [columnar]",
            "      Pipeline[tumble] [columnar] "
            "[fused: tumble(timecol=$1, size=2m)]",
            "        Scan(S stream) [columnar]",
        ]

    def test_a_row_flow_prints_the_same_fused_tree(self):
        """``batch_size=1`` compiles the plan ``batch_size=64`` does:
        only the ``Columnar:`` header line differs."""
        row = make_engine().explain(SQL, mode="physical")
        col = make_engine(batch_size=64).explain(SQL, mode="physical")
        row_header, row_tree = row[row.index("Columnar: "):].split("\n", 1)
        col_header, col_tree = col[col.index("Columnar: "):].split("\n", 1)
        assert row_header == (
            "Columnar: off — row-at-a-time batches (columnar=auto, batch_size=1)"
        )
        assert col_header == "Columnar: on (columnar=auto, batch_size=64)"
        assert row_tree == col_tree
        for mark in ("in=[", "out=[", "Pipeline[", "[fused:"):
            assert mark in row_tree
