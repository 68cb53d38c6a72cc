"""Tests for the dataset-script reader/writer."""

import pytest

from repro.core.schema import Schema, int_col, string_col, timestamp_col
from repro.core.times import t
from repro.io import ScriptError, format_script, parse_schema_line, parse_script
from repro.nexmark import paper_bid_stream

PAPER_SCRIPT = """
# The example dataset of Section 4
schema: bidtime TIMESTAMP EVENT TIME, price INT, item STRING
8:07  WM -> 8:05
8:08  INSERT (8:07, $2, A)
8:12  INSERT (8:11, $3, B)
8:13  INSERT (8:05, $4, C)
8:14  WM -> 8:08
8:15  INSERT (8:09, $5, D)
8:16  WM -> 8:12
8:17  INSERT (8:13, $1, E)
8:18  INSERT (8:17, $6, F)
8:21  WM -> 8:20
"""


class TestParse:
    def test_paper_dataset_parses_to_reference_stream(self):
        parsed = parse_script(PAPER_SCRIPT)
        reference = paper_bid_stream()
        assert parsed.events() == reference.events()
        assert parsed.schema.column_names() == ["bidtime", "price", "item"]
        assert parsed.schema.columns[0].event_time

    def test_schema_line(self):
        schema = parse_schema_line(
            "schema: ts TIMESTAMP EVENT TIME, n INT, f FLOAT, s STRING, b BOOL"
        )
        assert len(schema) == 5
        assert schema.columns[0].event_time
        assert not schema.columns[1].event_time

    def test_explicit_schema_argument(self):
        schema = Schema([timestamp_col("ts", event_time=True), int_col("v")])
        tvr = parse_script("100 INSERT (0:01, 5)", schema)
        assert tvr.snapshot().tuples == [(t("0:01"), 5)]

    def test_retract_lines(self):
        schema = Schema([int_col("v")])
        tvr = parse_script("1 INSERT (5)\n2 RETRACT (5)", schema)
        assert len(tvr.snapshot()) == 0

    def test_null_and_quoted_values(self):
        schema = Schema([int_col("v"), string_col("s")])
        tvr = parse_script("1 INSERT (NULL, 'hello world')", schema)
        assert tvr.snapshot().tuples == [(None, "hello world")]

    def test_numeric_ptime(self):
        schema = Schema([int_col("v")])
        tvr = parse_script("12345 INSERT (1)", schema)
        assert tvr.last_ptime == 12345

    @pytest.mark.parametrize(
        "bad",
        [
            "gibberish line",
            "1 INSERT (1, 2)",  # arity mismatch for single-col schema
            "schema: x WIBBLE",
        ],
    )
    def test_errors(self, bad):
        schema = Schema([int_col("v")])
        with pytest.raises(ScriptError):
            parse_script(bad, schema if "schema" not in bad else None)

    def test_duplicate_schema_rejected(self):
        with pytest.raises(ScriptError, match="twice"):
            parse_script("schema: v INT\nschema: w INT")

    def test_empty_script_rejected(self):
        with pytest.raises(ScriptError):
            parse_script("# nothing\n")


class TestRoundTrip:
    def test_paper_stream_round_trips(self):
        original = paper_bid_stream()
        text = format_script(original)
        parsed = parse_script(text)
        assert parsed.events() == original.events()

    def test_format_renders_readably(self):
        text = format_script(paper_bid_stream())
        assert "8:07  WM -> 8:05" in text
        assert "8:08  INSERT (8:07, 2, 'A')" in text


class TestJsonlFastPaths:
    """The hoisted encoder renders what ``json.dumps`` did, and an
    integer ``ptime``/``wm`` is taken as the text round trip read it."""

    SCHEMA = Schema([timestamp_col("ts", event_time=True), int_col("n"),
                     string_col("s")])

    @staticmethod
    def round_trip_time(value):
        """How every time field was read before: through its text."""
        from repro.io import _parse_time

        return _parse_time(str(value))

    def test_format_jsonl_is_byte_identical_to_json_dumps(self):
        import json

        from repro.core.tvr import TimeVaryingRelation
        from repro.io import format_jsonl, format_schema

        tvr = TimeVaryingRelation(self.SCHEMA)
        tvr.insert(1, (5, -3, "é \"q\" \n\x00 ☃"))
        tvr.insert(2, (6, None, ""))
        tvr.advance_watermark(3, 4)
        tvr.retract(4, (5, -3, "é \"q\" \n\x00 ☃"))
        lines = [json.dumps({"schema": format_schema(self.SCHEMA)})]
        for event in tvr.events():
            if hasattr(event, "value"):
                record = {"ptime": event.ptime, "wm": event.value}
            else:
                kind = "insert" if event.is_insert else "retract"
                record = {"ptime": event.ptime, kind: list(event.change.values)}
            lines.append(json.dumps(record, separators=(",", ":")))
        assert format_jsonl(tvr) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "value", [0, 7, -5, 10**18, "8:05", "12", " 3", "1.5", 1.5, True, None,
                  "x", [1], {"a": 1}],
    )
    @pytest.mark.parametrize("field", ["ptime", "wm"])
    def test_time_fields_read_as_their_text_did(self, value, field):
        from repro.io import parse_event_line

        payload = {"ptime": 1, "wm": 2, field: value}
        line = __import__("json").dumps(payload)
        try:
            expected = ("ok", self.round_trip_time(value))
        except ScriptError as exc:
            expected = ("error", str(exc))
        try:
            event = parse_event_line(line, self.SCHEMA)
            got = ("ok", event.ptime if field == "ptime" else event.value)
        except ScriptError as exc:
            got = ("error", str(exc))
        assert got == expected
