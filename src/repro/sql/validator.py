"""Name resolution and expression typing.

:class:`Scope` models the namespace of a ``FROM`` clause: an ordered
list of (alias, schema) entries, each at a column offset into the
concatenated row.  :class:`ExprTranslator` converts AST expressions
into typed :mod:`~repro.plan.rex` trees against a scope, deriving types
and raising :class:`~repro.core.errors.ValidationError` with source
positions on any semantic problem.

The translator accepts an *interceptor* hook: the planner uses it to
rewrite expressions against an aggregate's output (matching ``GROUP
BY`` expressions and aggregate calls) while reusing all of the typing
logic here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..core.errors import ValidationError
from ..core.schema import Column, Schema, SqlType
from ..plan import rex
from . import ast
from .functions import FunctionRegistry

__all__ = ["ScopeEntry", "Scope", "ExprTranslator"]


@dataclass(frozen=True)
class ScopeEntry:
    """One FROM item visible in a scope."""

    alias: Optional[str]
    schema: Schema
    offset: int
    is_window_tvf: bool = False

    def matches_alias(self, name: str) -> bool:
        return self.alias is not None and self.alias.lower() == name.lower()


class Scope:
    """The namespace produced by a FROM clause."""

    def __init__(self, entries: Sequence[ScopeEntry], sql: str | None = None):
        self.entries = list(entries)
        self.sql = sql

    @classmethod
    def single(
        cls,
        schema: Schema,
        alias: Optional[str] = None,
        sql: str | None = None,
        is_window_tvf: bool = False,
    ) -> "Scope":
        return cls([ScopeEntry(alias, schema, 0, is_window_tvf)], sql=sql)

    @property
    def total_width(self) -> int:
        if not self.entries:
            return 0
        last = self.entries[-1]
        return last.offset + len(last.schema)

    def _unknown_column(self, message: str, pos: int) -> ValidationError:
        return ValidationError(message, self.sql, pos, code="unknown_column")

    def resolve(self, parts: tuple[str, ...], pos: int = -1) -> tuple[int, Column]:
        """Resolve a possibly-qualified name to (ordinal, column)."""
        if len(parts) == 2:
            qualifier, column = parts
            for entry in self.entries:
                if entry.matches_alias(qualifier):
                    if column not in entry.schema:
                        raise self._unknown_column(
                            f"table {qualifier!r} has no column {column!r}", pos
                        )
                    idx = entry.schema.index_of(column)
                    return entry.offset + idx, entry.schema.columns[idx]
            raise self._unknown_column(f"unknown table alias {qualifier!r}", pos)
        if len(parts) == 1:
            name = parts[0]
            hits: list[tuple[int, Column]] = []
            for entry in self.entries:
                if name in entry.schema:
                    idx = entry.schema.index_of(name)
                    hits.append((entry.offset + idx, entry.schema.columns[idx]))
            if not hits:
                raise self._unknown_column(f"unknown column {name!r}", pos)
            if len(hits) > 1:
                raise self._unknown_column(f"ambiguous column {name!r}", pos)
            return hits[0]
        raise ValidationError(
            f"cannot resolve nested name {'.'.join(parts)!r}", self.sql, pos
        )

    def expand_star(self, qualifier: Optional[str], pos: int = -1) -> list[int]:
        """Ordinals covered by ``*`` or ``qualifier.*``."""
        if qualifier is None:
            return list(range(self.total_width))
        for entry in self.entries:
            if entry.matches_alias(qualifier):
                return list(range(entry.offset, entry.offset + len(entry.schema)))
        raise self._unknown_column(f"unknown table alias {qualifier!r}", pos)

    def column_at(self, ordinal: int) -> Column:
        for entry in self.entries:
            if entry.offset <= ordinal < entry.offset + len(entry.schema):
                return entry.schema.columns[ordinal - entry.offset]
        raise ValidationError(f"ordinal {ordinal} out of range")


# Interceptor: returns a Rex to use for this AST node, or None to let the
# default translation proceed.
Interceptor = Callable[[ast.Expr], Optional[rex.Rex]]

_TYPE_NAMES = {
    "INT": SqlType.INT,
    "INTEGER": SqlType.INT,
    "BIGINT": SqlType.INT,
    "FLOAT": SqlType.FLOAT,
    "DOUBLE": SqlType.FLOAT,
    "REAL": SqlType.FLOAT,
    "VARCHAR": SqlType.STRING,
    "CHAR": SqlType.STRING,
    "STRING": SqlType.STRING,
    "TEXT": SqlType.STRING,
    "BOOLEAN": SqlType.BOOL,
    "BOOL": SqlType.BOOL,
    "TIMESTAMP": SqlType.TIMESTAMP,
    "INTERVAL": SqlType.INTERVAL,
}


class ExprTranslator:
    """Translates AST expressions to typed rex trees."""

    def __init__(
        self,
        scope: Scope,
        registry: FunctionRegistry,
        sql: str | None = None,
        interceptor: Optional[Interceptor] = None,
    ):
        self._scope = scope
        self._registry = registry
        self._sql = sql
        self._interceptor = interceptor

    def _error(self, message: str, node: ast.Node) -> ValidationError:
        return ValidationError(message, self._sql, node.pos)

    def _mismatch(self, message: str, node: ast.Node) -> ValidationError:
        return ValidationError(message, self._sql, node.pos, code="type_mismatch")

    def translate(self, expr: ast.Expr) -> rex.Rex:
        if self._interceptor is not None:
            replaced = self._interceptor(expr)
            if replaced is not None:
                return replaced
        return self._translate(expr)

    # -- node dispatch ----------------------------------------------------

    def _translate(self, expr: ast.Expr) -> rex.Rex:
        if isinstance(expr, ast.Literal):
            return rex.RexLiteral(expr.value, type=_literal_type(expr.value))
        if isinstance(expr, ast.IntervalLiteral):
            return rex.RexLiteral(expr.millis, type=SqlType.INTERVAL)
        if isinstance(expr, ast.ColumnRef):
            ordinal, column = self._scope.resolve(expr.parts, expr.pos)
            return rex.RexInput(ordinal, type=column.type)
        if isinstance(expr, ast.UnaryOp):
            return self._unary(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.FunctionCall):
            return self._call(expr)
        if isinstance(expr, ast.Case):
            return self._case(expr)
        if isinstance(expr, ast.Cast):
            return self._cast(expr)
        if isinstance(expr, ast.Between):
            low = ast.BinaryOp(">=", expr.operand, expr.low, pos=expr.pos)
            high = ast.BinaryOp("<=", expr.operand, expr.high, pos=expr.pos)
            both = ast.BinaryOp("AND", low, high, pos=expr.pos)
            translated = self.translate(both)
            if expr.negated:
                return rex.RexCall("NOT", (translated,), type=SqlType.BOOL)
            return translated
        if isinstance(expr, ast.InList):
            operand = self.translate(expr.operand)
            items = tuple(self.translate(item) for item in expr.items)
            in_call = rex.RexCall("IN", (operand,) + items, type=SqlType.BOOL)
            if expr.negated:
                return rex.RexCall("NOT", (in_call,), type=SqlType.BOOL)
            return in_call
        if isinstance(expr, ast.IsNull):
            operand = self.translate(expr.operand)
            op = "IS NOT NULL" if expr.negated else "IS NULL"
            return rex.RexCall(op, (operand,), type=SqlType.BOOL)
        if isinstance(expr, ast.CurrentTime):
            return rex.RexCurrentTime(type=SqlType.TIMESTAMP)
        if isinstance(expr, ast.OverCall):
            raise self._error(
                "OVER windows are only allowed in the select list of a "
                "query without GROUP BY",
                expr,
            )
        if isinstance(expr, ast.Star):
            raise self._error("* is only allowed in the select list", expr)
        if isinstance(expr, ast.Exists):
            raise self._error(
                "[NOT] EXISTS is only supported as a top-level AND-ed "
                "conjunct of WHERE",
                expr,
            )
        if isinstance(expr, ast.InSubquery):
            raise self._error(
                "[NOT] IN (SELECT ...) is only supported as a top-level "
                "AND-ed conjunct of WHERE",
                expr,
            )
        if isinstance(expr, ast.ScalarSubquery):
            raise self._error(
                "scalar subqueries are not supported; rewrite as a join "
                "(see the paper's Listing 2 formulation of NEXMark Q7)",
                expr,
            )
        if isinstance(expr, (ast.Descriptor, ast.TableArg, ast.NamedArg)):
            raise self._error(
                f"{type(expr).__name__} is only allowed as a table function "
                f"argument",
                expr,
            )
        raise self._error(f"cannot translate {type(expr).__name__}", expr)

    def _unary(self, expr: ast.UnaryOp) -> rex.Rex:
        operand = self.translate(expr.operand)
        if expr.op == "NOT":
            if operand.type not in (SqlType.BOOL, SqlType.NULL):
                raise self._mismatch("NOT requires a BOOLEAN operand", expr)
            return rex.RexCall("NOT", (operand,), type=SqlType.BOOL)
        if expr.op == "-":
            if not (operand.type.is_numeric or operand.type is SqlType.INTERVAL
                    or operand.type is SqlType.NULL):
                raise self._mismatch(f"cannot negate {operand.type}", expr)
            if isinstance(operand, rex.RexLiteral) and operand.value is not None:
                return rex.RexLiteral(-operand.value, type=operand.type)
            return rex.RexCall("NEG", (operand,), type=operand.type)
        raise self._error(f"unknown unary operator {expr.op}", expr)

    def _binary(self, expr: ast.BinaryOp) -> rex.Rex:
        op = expr.op
        left = self.translate(expr.left)
        right = self.translate(expr.right)
        lt, rt = left.type, right.type
        if op in ("AND", "OR"):
            for t in (lt, rt):
                if t not in (SqlType.BOOL, SqlType.NULL):
                    raise self._mismatch(
                        f"{op} requires BOOLEAN operands, got {t}", expr
                    )
            return rex.RexCall(op, (left, right), type=SqlType.BOOL)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            if not lt.is_comparable_with(rt):
                raise self._mismatch(f"cannot compare {lt} with {rt}", expr)
            return rex.RexCall(op, (left, right), type=SqlType.BOOL)
        if op == "||":
            return rex.RexCall("||", (left, right), type=SqlType.STRING)
        if op == "LIKE":
            if lt not in (SqlType.STRING, SqlType.NULL) or rt not in (
                SqlType.STRING,
                SqlType.NULL,
            ):
                raise self._mismatch("LIKE requires string operands", expr)
            return rex.RexCall("LIKE", (left, right), type=SqlType.BOOL)
        if op in ("+", "-"):
            result = self._additive_type(op, lt, rt, expr)
            return rex.RexCall(op, (left, right), type=result)
        if op in ("*", "/", "%"):
            result = self._multiplicative_type(op, lt, rt, expr)
            return rex.RexCall(op, (left, right), type=result)
        raise self._error(f"unknown operator {op}", expr)

    def _additive_type(
        self, op: str, lt: SqlType, rt: SqlType, expr: ast.Expr
    ) -> SqlType:
        if lt is SqlType.TIMESTAMP and rt is SqlType.INTERVAL:
            return SqlType.TIMESTAMP
        if lt is SqlType.INTERVAL and rt is SqlType.TIMESTAMP and op == "+":
            return SqlType.TIMESTAMP
        if lt is SqlType.INTERVAL and rt is SqlType.INTERVAL:
            return SqlType.INTERVAL
        if lt is SqlType.TIMESTAMP and rt is SqlType.TIMESTAMP and op == "-":
            return SqlType.INTERVAL
        if (lt.is_numeric or lt is SqlType.NULL) and (
            rt.is_numeric or rt is SqlType.NULL
        ):
            return (
                SqlType.FLOAT
                if SqlType.FLOAT in (lt, rt)
                else SqlType.INT
            )
        raise self._mismatch(f"cannot apply {op} to {lt} and {rt}", expr)

    def _multiplicative_type(
        self, op: str, lt: SqlType, rt: SqlType, expr: ast.Expr
    ) -> SqlType:
        if op == "*" and {lt, rt} == {SqlType.INTERVAL, SqlType.INT}:
            return SqlType.INTERVAL
        if (lt.is_numeric or lt is SqlType.NULL) and (
            rt.is_numeric or rt is SqlType.NULL
        ):
            if op == "/" and lt is SqlType.INT and rt is SqlType.INT:
                return SqlType.INT
            if op == "%":
                return SqlType.INT
            return (
                SqlType.FLOAT
                if SqlType.FLOAT in (lt, rt)
                else SqlType.INT
            )
        raise self._mismatch(f"cannot apply {op} to {lt} and {rt}", expr)

    def _call(self, expr: ast.FunctionCall) -> rex.Rex:
        if self._registry.is_aggregate(expr.name):
            raise self._error(
                f"aggregate {expr.name} is not allowed here", expr
            )
        fn = self._registry.scalar(expr.name)
        fn.check_arity(len(expr.args))
        args = tuple(self.translate(a) for a in expr.args)
        result_type = fn.return_type([a.type for a in args])
        return rex.RexCall(fn.name, args, function=fn, type=result_type)

    def _case(self, expr: ast.Case) -> rex.Rex:
        whens = []
        result_type = SqlType.NULL
        for cond, value in expr.whens:
            c = self.translate(cond)
            if c.type not in (SqlType.BOOL, SqlType.NULL):
                raise self._mismatch("CASE condition must be BOOLEAN", expr)
            v = self.translate(value)
            if result_type is SqlType.NULL:
                result_type = v.type
            whens.append((c, v))
        else_rex = self.translate(expr.else_) if expr.else_ is not None else None
        if result_type is SqlType.NULL and else_rex is not None:
            result_type = else_rex.type
        return rex.RexCase(tuple(whens), else_rex, type=result_type)

    def _cast(self, expr: ast.Cast) -> rex.Rex:
        operand = self.translate(expr.operand)
        target = _TYPE_NAMES.get(expr.type_name)
        if target is None:
            raise self._mismatch(f"unknown type {expr.type_name} in CAST", expr)
        return rex.RexCast(operand, type=target)


def _literal_type(value: object) -> SqlType:
    if value is None:
        return SqlType.NULL
    if isinstance(value, bool):
        return SqlType.BOOL
    if isinstance(value, int):
        return SqlType.INT
    if isinstance(value, float):
        return SqlType.FLOAT
    if isinstance(value, str):
        return SqlType.STRING
    raise ValidationError(f"unsupported literal {value!r}")
