"""Row expressions ("rex", after Calcite's RexNode).

The planner translates SQL AST expressions into this small typed IR.
Rex trees are:

* **typed** — every node knows its :class:`~repro.core.schema.SqlType`;
* **positional** — column references are input ordinals, so evaluation
  needs no name lookups;
* **compilable** — :func:`compile_rex` turns a tree into a plain Python
  closure ``tuple -> value``, which is what the executor runs per row.

SQL's three-valued logic is honored: comparisons and arithmetic
propagate NULL, ``AND``/``OR`` follow Kleene semantics, and ``WHERE``
treats unknown as false (the executor filters on ``is True``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from ..core.errors import ExecutionError, PlanError
from ..core.schema import SqlType

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.sql
    from ..sql.functions import ScalarFunction

__all__ = [
    "Rex",
    "RexInput",
    "RexLiteral",
    "RexCall",
    "RexCase",
    "RexCast",
    "RexCurrentTime",
    "compile_rex",
    "walk",
    "references",
    "shift_inputs",
    "is_literal",
]


@dataclass(frozen=True, slots=True)
class Rex:
    """Base row expression; ``type`` is the statically derived type."""

    type: SqlType = field(kw_only=True)


@dataclass(frozen=True, slots=True)
class RexInput(Rex):
    """A reference to input column ``index``."""

    index: int

    def __str__(self) -> str:
        return f"${self.index}"


@dataclass(frozen=True, slots=True)
class RexLiteral(Rex):
    """A constant value."""

    value: Any

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class RexCall(Rex):
    """An operator or scalar-function application.

    ``op`` is a normalized operator symbol (``=``, ``AND``, ``+``, ...)
    or an upper-case function name; function calls carry their resolved
    :class:`ScalarFunction` so evaluation does not consult the registry.
    """

    op: str
    args: tuple[Rex, ...]
    function: Optional["ScalarFunction"] = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.op}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True, slots=True)
class RexCase(Rex):
    """``CASE WHEN ... THEN ... ELSE ... END``."""

    whens: tuple[tuple[Rex, Rex], ...]
    else_: Optional[Rex]

    def __str__(self) -> str:
        arms = " ".join(f"WHEN {c} THEN {v}" for c, v in self.whens)
        tail = f" ELSE {self.else_}" if self.else_ is not None else ""
        return f"CASE {arms}{tail} END"


@dataclass(frozen=True, slots=True)
class RexCast(Rex):
    """``CAST(operand AS type)``."""

    operand: Rex

    def __str__(self) -> str:
        return f"CAST({self.operand} AS {self.type})"


@dataclass(frozen=True, slots=True)
class RexCurrentTime(Rex):
    """``CURRENT_TIME``: the progressing processing-time instant.

    Not row-compilable — the planner must absorb it into a temporal
    filter (:class:`~repro.plan.logical.TemporalFilterNode`), whose
    operator evaluates it against the executor's clock.
    """

    def __str__(self) -> str:
        return "CURRENT_TIME"


# --------------------------------------------------------------------
# tree utilities
# --------------------------------------------------------------------


def walk(rex: Rex) -> Iterator[Rex]:
    """Pre-order traversal of a rex tree (one generator, any depth)."""
    stack = [rex]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, RexCall):
            stack.extend(reversed(node.args))
        elif isinstance(node, RexCase):
            if node.else_ is not None:
                stack.append(node.else_)
            for cond, value in reversed(node.whens):
                stack.append(value)
                stack.append(cond)
        elif isinstance(node, RexCast):
            stack.append(node.operand)


def references(rex: Rex) -> set[int]:
    """Input ordinals referenced anywhere in the tree."""
    return {node.index for node in walk(rex) if isinstance(node, RexInput)}


def shift_inputs(rex: Rex, mapping: dict[int, int]) -> Rex:
    """Rewrite input ordinals through ``mapping`` (must be total)."""
    if isinstance(rex, RexInput):
        try:
            return RexInput(mapping[rex.index], type=rex.type)
        except KeyError:
            raise PlanError(f"input ${rex.index} not present in mapping") from None
    if isinstance(rex, RexLiteral):
        return rex
    if isinstance(rex, RexCall):
        return RexCall(
            rex.op,
            tuple(shift_inputs(a, mapping) for a in rex.args),
            function=rex.function,
            type=rex.type,
        )
    if isinstance(rex, RexCase):
        return RexCase(
            tuple(
                (shift_inputs(c, mapping), shift_inputs(v, mapping))
                for c, v in rex.whens
            ),
            shift_inputs(rex.else_, mapping) if rex.else_ is not None else None,
            type=rex.type,
        )
    if isinstance(rex, RexCast):
        return RexCast(shift_inputs(rex.operand, mapping), type=rex.type)
    if isinstance(rex, RexCurrentTime):
        return rex
    raise PlanError(f"cannot rewrite {rex!r}")


def is_literal(rex: Rex) -> bool:
    return isinstance(rex, RexLiteral)


def split_conjuncts(rex: Rex) -> list[Rex]:
    """Flatten a predicate into its AND-ed conjuncts."""
    if isinstance(rex, RexCall) and rex.op == "AND":
        out = []
        for arg in rex.args:
            out.extend(split_conjuncts(arg))
        return out
    return [rex]


def equi_pair(conjunct: Rex, left_width: int) -> Optional[tuple[int, int]]:
    """Match ``$l = $r`` with one ordinal on each side of a join whose
    left input is ``left_width`` columns wide: ``(l, r)``, or ``None``."""
    if not isinstance(conjunct, RexCall) or conjunct.op != "=":
        return None
    a, b = conjunct.args
    if isinstance(a, RexInput) and isinstance(b, RexInput):
        if a.index < left_width <= b.index:
            return a.index, b.index
        if b.index < left_width <= a.index:
            return b.index, a.index
    return None


# --------------------------------------------------------------------
# compilation
# --------------------------------------------------------------------

_Evaluator = Callable[[tuple], Any]


def _NONE_EVAL(row: tuple) -> Any:
    """Shared evaluator for ``RexLiteral(None)`` — NULL literals are
    common enough (IS NULL scaffolding, defaults) that each deserves
    the same closure instead of a fresh one per compile."""
    return None


def compile_rex(rex: Rex) -> _Evaluator:
    """Compile a rex tree into a ``row_tuple -> value`` closure."""
    if isinstance(rex, RexInput):
        index = rex.index
        return lambda row: row[index]
    if isinstance(rex, RexLiteral):
        value = rex.value
        if value is None:
            return _NONE_EVAL
        return lambda row: value
    if isinstance(rex, RexCase):
        compiled = [(compile_rex(c), compile_rex(v)) for c, v in rex.whens]
        else_fn = compile_rex(rex.else_) if rex.else_ is not None else None

        def case_eval(row: tuple) -> Any:
            for cond_fn, value_fn in compiled:
                if cond_fn(row) is True:
                    return value_fn(row)
            return else_fn(row) if else_fn is not None else None

        return case_eval
    if isinstance(rex, RexCast):
        return _compile_cast(rex)
    if isinstance(rex, RexCall):
        return _compile_call(rex)
    if isinstance(rex, RexCurrentTime):
        raise ExecutionError(
            "CURRENT_TIME cannot be evaluated per row; it must appear in "
            "a tail-of-stream predicate the planner can turn into a "
            "temporal filter"
        )
    raise ExecutionError(f"cannot compile {rex!r}")


# Cast-target dispatch, built once instead of re-branching on the
# target type inside cast_eval on every row.
_CAST_OPS: dict[SqlType, Callable[[Any], Any]] = {
    SqlType.INT: int,
    SqlType.TIMESTAMP: int,
    SqlType.FLOAT: float,
    SqlType.STRING: str,
    SqlType.BOOL: bool,
}


def _compile_cast(rex: RexCast) -> _Evaluator:
    inner = compile_rex(rex.operand)
    convert = _CAST_OPS.get(rex.type)
    if convert is None:
        # Identity cast: NULL stays NULL and values pass through.
        return inner

    def cast_eval(row: tuple) -> Any:
        value = inner(row)
        if value is None:
            return None
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise ExecutionError(f"CAST failed: {exc}") from None

    return cast_eval


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    out = ["^"]
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    out.append("$")
    return re.compile("".join(out), re.DOTALL)


def _compile_call(rex: RexCall) -> _Evaluator:
    op = rex.op
    args = [compile_rex(a) for a in rex.args]

    if op == "AND":
        left, right = args
        # Kleene AND: false dominates, otherwise NULL is unknown.
        def and_eval(row: tuple) -> Any:
            a = left(row)
            if a is False:
                return False
            b = right(row)
            if b is False:
                return False
            if a is None or b is None:
                return None
            return True

        return and_eval

    if op == "OR":
        left, right = args

        def or_eval(row: tuple) -> Any:
            a = left(row)
            if a is True:
                return True
            b = right(row)
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False

        return or_eval

    if op == "NOT":
        (operand,) = args

        def not_eval(row: tuple) -> Any:
            v = operand(row)
            return None if v is None else not v

        return not_eval

    if op == "IS NULL":
        (operand,) = args
        return lambda row: operand(row) is None

    if op == "IS NOT NULL":
        (operand,) = args
        return lambda row: operand(row) is not None

    if op in ("=", "<>", "<", "<=", ">", ">="):
        left, right = args
        comparator = {
            "=": lambda a, b: a == b,
            "<>": lambda a, b: a != b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
        }[op]

        def cmp_eval(row: tuple) -> Any:
            a = left(row)
            if a is None:
                return None
            b = right(row)
            if b is None:
                return None
            return comparator(a, b)

        return cmp_eval

    if op in ("+", "-", "*", "/", "%"):
        left, right = args
        if op == "/":

            def div_eval(row: tuple) -> Any:
                a = left(row)
                if a is None:
                    return None
                b = right(row)
                if b is None:
                    return None
                if b == 0:
                    raise ExecutionError("division by zero")
                if isinstance(a, int) and isinstance(b, int):
                    # SQL integer division truncates toward zero.
                    q = abs(a) // abs(b)
                    return q if (a >= 0) == (b >= 0) else -q
                return a / b

            return div_eval
        arith = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "%": lambda a, b: a - b * int(a / b) if b else _div0(),
        }[op]

        def arith_eval(row: tuple) -> Any:
            a = left(row)
            if a is None:
                return None
            b = right(row)
            if b is None:
                return None
            return arith(a, b)

        return arith_eval

    if op == "NEG":
        (operand,) = args

        def neg_eval(row: tuple) -> Any:
            v = operand(row)
            return None if v is None else -v

        return neg_eval

    if op == "||":
        left, right = args

        def concat_eval(row: tuple) -> Any:
            a = left(row)
            if a is None:
                return None
            b = right(row)
            if b is None:
                return None
            return str(a) + str(b)

        return concat_eval

    if op == "LIKE":
        left, right = args
        pattern_rex = rex.args[1]
        if isinstance(pattern_rex, RexLiteral) and pattern_rex.value is not None:
            regex = _like_to_regex(str(pattern_rex.value))

            def like_const_eval(row: tuple) -> Any:
                v = left(row)
                return None if v is None else bool(regex.match(str(v)))

            return like_const_eval

        def like_eval(row: tuple) -> Any:
            v = left(row)
            if v is None:
                return None
            p = right(row)
            if p is None:
                return None
            return bool(_like_to_regex(str(p)).match(str(v)))

        return like_eval

    if op == "IN":
        operand, *items = args

        def in_eval(row: tuple) -> Any:
            v = operand(row)
            if v is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row)
                if candidate is None:
                    saw_null = True
                elif candidate == v:
                    return True
            return None if saw_null else False

        return in_eval

    if rex.function is not None:
        fn = rex.function

        if fn.null_propagating:

            def fn_eval(row: tuple) -> Any:
                values = [a(row) for a in args]
                if any(v is None for v in values):
                    return None
                return fn.impl(*values)

            return fn_eval

        def fn_eval_raw(row: tuple) -> Any:
            return fn.impl(*(a(row) for a in args))

        return fn_eval_raw

    raise ExecutionError(f"no evaluator for operator {op!r}")


def _div0() -> Any:
    raise ExecutionError("division by zero")
