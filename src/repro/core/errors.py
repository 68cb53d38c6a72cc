"""Exception hierarchy for the engine.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
The SQL front end raises position-annotated subclasses that render a
caret diagnostic pointing into the query text.

Every error carries a ``code`` from :data:`ERROR_CODES`.  Each class
declares one; a raise site names a narrower one (``code=``) only where
it knows more than its class, so a code never depends on a message's
wording.
"""

from __future__ import annotations

__all__ = [
    "ERROR_CODES",
    "ReproError",
    "SqlError",
    "LexError",
    "ParseError",
    "ValidationError",
    "PlanError",
    "ExecutionError",
    "SchemaError",
    "WatermarkError",
]


#: Every code an error carries, with the stage that raises it, in the
#: order the service's admission gates check them.  The codes of the
#: stages admission runs (parse, validate, admit) are the ones a wire
#: rejection answers (``repro.service.admission.REJECT_CODES``).
ERROR_CODES = {
    "auth_denied": "admit", "parse_error": "parse",
    "unknown_table": "validate", "acl_denied": "admit",
    "quota_queries": "admit", "quota_state": "admit",
    "unknown_column": "validate", "type_mismatch": "validate",
    "invalid_query": "validate", "execution_error": "execute",
    "schema_error": "schema", "watermark_error": "execute",
    "script_error": "load",
}


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    ``code`` is the error's kind, a key of :data:`ERROR_CODES`: the
    class's own, or the narrower one its raise site passed as ``code=``.
    """

    code = "invalid_query"

    def __init__(self, *args, code: str | None = None):
        super().__init__(*args)
        if code is not None:
            self.code = code


class SchemaError(ReproError):
    """A schema was malformed or used inconsistently."""

    code = "schema_error"


class WatermarkError(ReproError):
    """A watermark contract was violated (e.g. non-monotonic advance)."""

    code = "watermark_error"


class SqlError(ReproError):
    """Base class for errors in SQL text, carrying a source position."""

    code = "invalid_query"

    def __init__(self, message: str, sql: str | None = None,
                 pos: int | None = None, code: str | None = None):
        super().__init__(message, code=code)
        self.message = message
        self.sql = sql
        self.pos = pos

    def __str__(self) -> str:
        if self.sql is None or self.pos is None:
            return self.message
        line_start = self.sql.rfind("\n", 0, self.pos) + 1
        line_no = self.sql.count("\n", 0, self.pos) + 1
        col = self.pos - line_start
        snippet = self.sql[line_start:].split("\n", 1)[0]
        caret = " " * col + "^"
        return f"{self.message} (line {line_no}, column {col + 1})\n{snippet}\n{caret}"


class LexError(SqlError):
    """The tokenizer hit a character sequence it cannot tokenize."""

    code = "parse_error"


class ParseError(SqlError):
    """The parser hit an unexpected token."""

    code = "parse_error"


class ValidationError(SqlError):
    """The query is syntactically valid but semantically wrong.

    Examples: unknown table or column, type mismatch, or a violation of
    the paper's event-time rules (e.g. grouping an unbounded stream
    without an event-time key, Extension 2).
    """

    code = "invalid_query"


class PlanError(ReproError):
    """The planner could not translate a validated query."""

    code = "invalid_query"


class ExecutionError(ReproError):
    """A runtime failure while executing a plan."""

    code = "execution_error"
