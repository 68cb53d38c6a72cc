"""Reading and writing TVRs in the paper's dataset notation.

Section 4 presents its example stream as a two-column script of
processing times and events::

    8:07  WM -> 8:05
    8:08  INSERT (8:07, $2, A)

This module parses and re-emits that notation (linearized, one event
per line), with an optional leading ``schema:`` declaration so a script
file is self-contained::

    schema: bidtime TIMESTAMP EVENT TIME, price INT, item STRING
    8:07  WM -> 8:05
    8:08  INSERT (8:07, $2, A)
    8:13  RETRACT (8:07, $2, A)

Values are parsed per the schema's column types; ``$`` prefixes on
numbers (the paper's price notation) are accepted and ignored.

Live tailing (:class:`TailParser`) reads the same notation — plus a
JSONL encoding of it, one JSON object per line — *incrementally*: feed
it chunks as they are appended to a file or arrive on a socket and it
yields complete :class:`~repro.core.tvr.StreamEvent` items, buffering
any unterminated trailing line until its newline arrives instead of
failing on a mid-write record.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from .core.errors import ReproError
from .core.schema import Column, Schema, SqlType
from .core.times import fmt_time, t
from .core.tvr import RowEvent, StreamEvent, TimeVaryingRelation, WatermarkEvent, ins, rm, wm

__all__ = [
    "parse_script",
    "format_script",
    "format_schema",
    "parse_schema_line",
    "TailParser",
    "parse_event_line",
    "format_jsonl",
]

_TYPE_NAMES = {
    "INT": SqlType.INT,
    "INTEGER": SqlType.INT,
    "BIGINT": SqlType.INT,
    "FLOAT": SqlType.FLOAT,
    "DOUBLE": SqlType.FLOAT,
    "STRING": SqlType.STRING,
    "VARCHAR": SqlType.STRING,
    "BOOL": SqlType.BOOL,
    "BOOLEAN": SqlType.BOOL,
    "TIMESTAMP": SqlType.TIMESTAMP,
}

_WM_RE = re.compile(r"^(?P<ptime>\S+)\s+WM\s*->\s*(?P<value>\S+)$")
_ROW_RE = re.compile(
    r"^(?P<ptime>\S+)\s+(?P<kind>INSERT|RETRACT)\s*\((?P<values>.*)\)$"
)


class ScriptError(ReproError):
    """A dataset script could not be parsed."""


def parse_schema_line(line: str) -> Schema:
    """Parse ``schema: name TYPE [EVENT TIME], ...`` into a Schema."""
    body = line.split(":", 1)[1]
    columns = []
    for spec in body.split(","):
        words = spec.split()
        if len(words) < 2:
            raise ScriptError(f"bad column spec {spec.strip()!r}")
        name, type_name = words[0], words[1].upper()
        sql_type = _TYPE_NAMES.get(type_name)
        if sql_type is None:
            raise ScriptError(f"unknown type {words[1]!r} in schema line")
        event_time = [w.upper() for w in words[2:]] in (
            ["EVENT", "TIME"],
            ["*EVENT", "TIME*"],
        )
        if words[2:] and not event_time:
            raise ScriptError(f"unexpected tokens after type in {spec.strip()!r}")
        columns.append(Column(name, sql_type, event_time=event_time))
    return Schema(columns)


def format_schema(schema: Schema) -> str:
    """``name TYPE [EVENT TIME], ...`` — the body :func:`parse_schema_line`
    reads back after a ``schema:`` prefix."""
    return ", ".join(
        f"{c.name} {c.type}{' EVENT TIME' if c.event_time else ''}"
        for c in schema.columns
    )


def _parse_value(text: str, sql_type: SqlType):
    text = text.strip()
    if text.upper() == "NULL":
        return None
    if text.startswith("$"):
        text = text[1:]
    if sql_type is SqlType.TIMESTAMP:
        return t(text)
    if sql_type is SqlType.INT:
        return int(text)
    if sql_type is SqlType.FLOAT:
        return float(text)
    if sql_type is SqlType.BOOL:
        return text.upper() in ("TRUE", "T", "1")
    # string: allow optional quotes
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def _parse_time(text: str) -> int:
    try:
        return t(text)
    except ValueError:
        try:
            return int(text)
        except ValueError:
            raise ScriptError(f"cannot parse time {text!r}") from None


def _parse_script_event(
    line: str, schema: Schema, where: str = ""
) -> StreamEvent:
    """One non-blank, non-schema script line as a stream event."""
    wm_match = _WM_RE.match(line)
    if wm_match:
        return wm(
            _parse_time(wm_match.group("ptime")),
            _parse_time(wm_match.group("value")),
        )
    row_match = _ROW_RE.match(line)
    if row_match:
        parts = [p for p in row_match.group("values").split(",")]
        if len(parts) != len(schema):
            raise ScriptError(
                f"{where}expected {len(schema)} values, got {len(parts)}"
            )
        values = tuple(
            _parse_value(part, col.type)
            for part, col in zip(parts, schema.columns)
        )
        ptime = _parse_time(row_match.group("ptime"))
        maker = ins if row_match.group("kind") == "INSERT" else rm
        return maker(ptime, values)
    raise ScriptError(f"{where}cannot parse {line!r}")


def parse_script(text: str, schema: Optional[Schema] = None) -> TimeVaryingRelation:
    """Parse a dataset script into a TVR.

    If ``schema`` is not given, the script must start with a
    ``schema:`` line.
    """
    tvr: Optional[TimeVaryingRelation] = None
    if schema is not None:
        tvr = TimeVaryingRelation(schema)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().startswith("schema:"):
            if tvr is not None:
                raise ScriptError(f"line {lineno}: schema declared twice")
            schema = parse_schema_line(line)
            tvr = TimeVaryingRelation(schema)
            continue
        if tvr is None or schema is None:
            raise ScriptError(
                f"line {lineno}: no schema (pass one or add a 'schema:' line)"
            )
        tvr.apply(_parse_script_event(line, schema, where=f"line {lineno}: "))
    if tvr is None:
        raise ScriptError("empty script and no schema given")
    return tvr


def format_script(tvr: TimeVaryingRelation, include_schema: bool = True) -> str:
    """Render a TVR back into the script notation (round-trips)."""
    lines: list[str] = []
    if include_schema:
        lines.append(f"schema: {format_schema(tvr.schema)}")
    for event in tvr.events():
        ptime = fmt_time(event.ptime)
        if isinstance(event, WatermarkEvent):
            lines.append(f"{ptime}  WM -> {fmt_time(event.value)}")
            continue
        assert isinstance(event, RowEvent)
        rendered = []
        for col, value in zip(tvr.schema.columns, event.change.values):
            if value is None:
                rendered.append("NULL")
            elif col.type is SqlType.TIMESTAMP:
                rendered.append(fmt_time(value))
            elif col.type is SqlType.STRING:
                rendered.append(f"'{value}'")
            else:
                rendered.append(str(value))
        kind = "INSERT" if event.is_insert else "RETRACT"
        lines.append(f"{ptime}  {kind} ({', '.join(rendered)})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSONL encoding + incremental tailing
# ---------------------------------------------------------------------------

#: JSON value coercers per SQL type; timestamps accept "8:07" strings.
_JSON_COERCERS = {
    SqlType.TIMESTAMP: lambda v: t(v) if isinstance(v, str) else int(v),
    SqlType.INT: int,
    SqlType.FLOAT: float,
    SqlType.BOOL: bool,
    SqlType.STRING: str,
}


def _coerce_json_value(value, col: Column):
    if value is None:
        return None
    try:
        coerced = _JSON_COERCERS[col.type](value)
    except (TypeError, ValueError) as exc:
        raise ScriptError(
            f"column {col.name!r} expects {col.type}, got {value!r}"
        ) from exc
    if col.type in (SqlType.INT, SqlType.TIMESTAMP) and isinstance(value, float):
        raise ScriptError(f"column {col.name!r} expects {col.type}, got {value!r}")
    return coerced


def _parse_jsonl_event(payload: dict, schema: Schema, where: str = "") -> StreamEvent:
    """One decoded JSONL record as a stream event, schema-validated."""
    if "ptime" not in payload:
        raise ScriptError(f"{where}JSONL record has no 'ptime' field")
    # An integer time is taken as it is (what ``_parse_time`` of its
    # text returns); anything else goes through the text parser.
    ptime = payload["ptime"]
    if type(ptime) is not int:
        ptime = _parse_time(str(ptime))
    if "wm" in payload:
        mark = payload["wm"]
        return wm(ptime, mark if type(mark) is int else _parse_time(str(mark)))
    kind = "insert" if "insert" in payload else "retract" if "retract" in payload else None
    if kind is None:
        raise ScriptError(
            f"{where}JSONL record needs an 'insert', 'retract', or 'wm' field"
        )
    values = payload[kind]
    if not isinstance(values, (list, tuple)):
        raise ScriptError(f"{where}{kind!r} must carry a list of values")
    if len(values) != len(schema):
        raise ScriptError(
            f"{where}expected {len(schema)} values, got {len(values)}"
        )
    row = tuple(
        _coerce_json_value(value, col)
        for value, col in zip(values, schema.columns)
    )
    return (ins if kind == "insert" else rm)(ptime, row)


def parse_event_line(
    line: str, schema: Optional[Schema], where: str = ""
) -> StreamEvent | Schema:
    """Parse one feed line — script or JSONL notation — into an event.

    A ``schema:`` line (or a ``{"schema": "..."}`` record) returns a
    :class:`~repro.core.schema.Schema` instead; any other line requires
    ``schema`` to be known already.
    """
    if line.startswith("{"):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ScriptError(f"{where}malformed JSONL record: {exc}") from None
        if not isinstance(payload, dict):
            raise ScriptError(f"{where}JSONL record must be an object")
        if "schema" in payload:
            return parse_schema_line(f"schema: {payload['schema']}")
        if schema is None:
            raise ScriptError(f"{where}no schema declared before first event")
        return _parse_jsonl_event(payload, schema, where)
    if line.lower().startswith("schema:"):
        return parse_schema_line(line)
    if schema is None:
        raise ScriptError(f"{where}no schema declared before first event")
    return _parse_script_event(line, schema, where)


#: the compact encoder every event record is rendered with (what
#: ``json.dumps(record, separators=(",", ":"))`` builds per call)
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


def format_jsonl(tvr: TimeVaryingRelation, include_schema: bool = True) -> str:
    """Render a TVR as the JSONL feed encoding (round-trips)."""
    lines: list[str] = []
    if include_schema:
        lines.append(json.dumps({"schema": format_schema(tvr.schema)}))
    for event in tvr.events():
        if isinstance(event, WatermarkEvent):
            record = {"ptime": event.ptime, "wm": event.value}
        else:
            assert isinstance(event, RowEvent)
            kind = "insert" if event.is_insert else "retract"
            record = {"ptime": event.ptime, kind: list(event.change.values)}
        lines.append(_COMPACT_JSON.encode(record))
    return "\n".join(lines) + "\n"


class TailParser:
    """Incremental, mid-write-safe parser for live-tailed event feeds.

    Feed it text chunks exactly as they appear at the end of a growing
    file or arrive on a socket; :meth:`feed` returns the stream events
    completed by that chunk.  Only *newline-terminated* lines are
    parsed — a partially written final record stays buffered until its
    newline arrives, so tailing never fails on a record caught
    mid-write.  Call :meth:`close` at end-of-input to parse a final
    unterminated line.

    Both feed notations are accepted, decided per line: script lines
    (``8:08  INSERT (8:07, $2, A)``) and JSONL records
    (``{"ptime": 488000, "insert": [487000, 2, "A"]}``).  The schema
    comes from the constructor or from a leading ``schema:`` line /
    ``{"schema": "..."}`` record; every row is validated against it.
    """

    def __init__(self, schema: Optional[Schema] = None):
        self._schema = schema
        self._buffer = ""
        self._lineno = 0

    @property
    def schema(self) -> Optional[Schema]:
        """The feed's schema, once declared or provided."""
        return self._schema

    @property
    def pending(self) -> str:
        """The buffered partial line awaiting its newline (may be empty)."""
        return self._buffer

    def feed(self, chunk: str) -> list[StreamEvent]:
        """Consume a chunk; return the events its complete lines form."""
        self._buffer += chunk
        if "\n" not in self._buffer:
            return []
        complete, self._buffer = self._buffer.rsplit("\n", 1)
        events: list[StreamEvent] = []
        for raw in complete.split("\n"):
            self._lineno += 1
            event = self._parse_line(raw)
            if event is not None:
                events.append(event)
        return events

    def close(self) -> list[StreamEvent]:
        """Parse any buffered final line (end-of-input, no newline coming)."""
        if not self._buffer.strip():
            self._buffer = ""
            return []
        raw, self._buffer = self._buffer, ""
        self._lineno += 1
        event = self._parse_line(raw)
        return [event] if event is not None else []

    def _parse_line(self, raw: str) -> Optional[StreamEvent]:
        line = raw.strip()
        if not line or line.startswith("#"):
            return None
        parsed = parse_event_line(
            line, self._schema, where=f"line {self._lineno}: "
        )
        if isinstance(parsed, Schema):
            # A feed may restate the schema the consumer already knows
            # (every recorded file leads with one); only a *conflicting*
            # redeclaration is an error.
            if self._schema is not None and parsed != self._schema:
                raise ScriptError(
                    f"line {self._lineno}: schema redeclared with different "
                    f"columns"
                )
            self._schema = parsed
            return None
        return parsed
