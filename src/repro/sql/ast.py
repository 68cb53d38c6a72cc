"""Abstract syntax tree for the SQL dialect.

Nodes are immutable values produced by :mod:`repro.sql.parser` and
consumed by :mod:`repro.plan.planner`.  Each node keeps the source
position of the token that introduced it so the planner can raise
position-annotated :class:`~repro.core.errors.ValidationError`.

A node class declares its fields as annotations, a class-level value
being the field's default — the frozen-dataclass spelling, and the
frozen-dataclass behaviour: an ``__init__`` taking the fields in order
(``pos`` keyword-only), equality and hash over the fields (``pos``
excluded), the dataclass ``repr``, ``__match_args__``, and assignment
or deletion raising :class:`~dataclasses.FrozenInstanceError`.  The
methods are :class:`Node`'s, written once over the class's field tuple
(``__match_args__``); only the ``__init__`` of each class is generated,
all of them in one ``exec`` when the module loads, so no class goes
through :mod:`dataclasses` one at a time.

The extensions beyond textbook SQL mirror the paper exactly:

* :class:`TableArg` / :class:`Descriptor` — the ``TABLE(Bid)`` and
  ``DESCRIPTOR(bidtime)`` argument markers of SQL:2016 polymorphic
  table functions.
* :class:`TvfCall` — a table-valued function (``Tumble``, ``Hop``,
  ``Session``) in the ``FROM`` clause, with ``name => value`` arguments.
* the ``emit`` field on :class:`Select` — Extensions 4-7.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Any, Optional, Union

from ..core.emit import EmitSpec

__all__ = [
    "Expr", "Literal", "IntervalLiteral", "ColumnRef", "Star", "UnaryOp",
    "BinaryOp", "FunctionCall", "Case", "Cast", "Between", "InList",
    "InSubquery", "Exists",
    "IsNull", "Descriptor", "TableArg", "NamedArg", "ScalarSubquery",
    "CurrentTime", "OverCall",
    "PatternElement", "MatchRecognize", "ValuesRef",
    "FromItem", "TableRef", "SubqueryRef", "TvfCall", "JoinClause",
    "SelectItem", "OrderItem", "Select", "Union_", "Statement",
]


class Node:
    """Common base: every AST node records a source position.

    The position is excluded from equality so that structurally equal
    expressions compare equal — the planner matches select-list
    expressions against ``GROUP BY`` expressions this way.  Equality is
    the field tuples' (so a NaN literal equals itself as the same
    object); ``_key`` reads a node's fields, wrapped in a 1-tuple below
    so that one field still compares as a tuple.
    """

    pos: int = -1
    #: the class's fields in declaration order, ``pos`` excluded
    __match_args__: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return (key(self),) == (key(other),)

    def __hash__(self):
        return hash((self._key(self),))

    def __repr__(self):
        names = ("pos", *self.__match_args__)
        values = map(self.__getattribute__, names)
        fields = ", ".join(map("{}={!r}".format, names, values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# --------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------


class Literal(Node):
    """A numeric, string, boolean, or NULL literal."""

    value: Any


class IntervalLiteral(Node):
    """``INTERVAL '10' MINUTE`` — resolved to milliseconds at parse time."""

    millis: int
    text: str = ""


class ColumnRef(Node):
    """A possibly-qualified column reference like ``Bid.price``."""

    parts: tuple[str, ...]

    def __str__(self) -> str:
        return ".".join(self.parts)


class Star(Node):
    """``*`` or ``alias.*`` in a select list."""

    qualifier: Optional[str] = None


class UnaryOp(Node):
    """``NOT x`` or ``-x``."""

    op: str
    operand: "Expr"


class BinaryOp(Node):
    """A binary operator application; ``op`` is the normalized symbol."""

    op: str
    left: "Expr"
    right: "Expr"


class FunctionCall(Node):
    """A scalar or aggregate function call."""

    name: str
    args: tuple["Expr", ...]
    distinct: bool = False
    is_star: bool = False  # COUNT(*)


class Case(Node):
    """``CASE WHEN c THEN v ... [ELSE e] END`` (searched form)."""

    whens: tuple[tuple["Expr", "Expr"], ...]
    else_: Optional["Expr"]


class Cast(Node):
    """``CAST(expr AS TYPE)``."""

    operand: "Expr"
    type_name: str


class Between(Node):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


class InList(Node):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: "Expr"
    items: tuple["Expr", ...]
    negated: bool = False


class InSubquery(Node):
    """``expr [NOT] IN (SELECT ...)`` — planned as a semi/anti join."""

    operand: "Expr"
    query: "Select"
    negated: bool = False


class Exists(Node):
    """``[NOT] EXISTS (SELECT ...)`` — an uncorrelated emptiness test."""

    query: "Select"
    negated: bool = False


class IsNull(Node):
    """``expr IS [NOT] NULL``."""

    operand: "Expr"
    negated: bool = False


class Descriptor(Node):
    """``DESCRIPTOR(col)`` — names an event time column for a TVF."""

    column: str


class TableArg(Node):
    """``TABLE(name)`` — passes a relation into a TVF."""

    name: str


class NamedArg(Node):
    """``name => value`` in a TVF invocation."""

    name: str
    value: "Expr"


class ScalarSubquery(Node):
    """A parenthesized SELECT used as a scalar expression."""

    query: "Select"


class OverCall(Node):
    """``agg(x) OVER (PARTITION BY … ORDER BY et [ROWS …])``.

    Appendix B.2.3 lists "OVER windows with an ORDER BY clause on an
    event time attribute" among the operators that exploit watermarks:
    rows are sequenced per partition by event time, each emitted once
    stable with its running aggregate.  ``rows_preceding`` is the frame
    (``None`` = UNBOUNDED PRECEDING); the frame always ends at CURRENT
    ROW.
    """

    func: "FunctionCall"
    partition_by: tuple["ColumnRef", ...]
    order_by: "ColumnRef"
    rows_preceding: Optional[int] = None


class CurrentTime(Node):
    """``CURRENT_TIME`` — a time-progressing expression (Section 8).

    Standard SQL fixes CURRENT_TIME at query execution; the paper's
    future-work extension (which we implement) lets it progress, so a
    predicate like ``bidtime > CURRENT_TIME - INTERVAL '1' HOUR``
    defines a continuously moving tail-of-stream view.
    """


Expr = Union[
    Literal, IntervalLiteral, ColumnRef, Star, UnaryOp, BinaryOp,
    FunctionCall, Case, Cast, Between, InList, InSubquery, Exists, IsNull,
    Descriptor, TableArg, NamedArg, ScalarSubquery, CurrentTime, OverCall,
]


# --------------------------------------------------------------------
# FROM items
# --------------------------------------------------------------------


class TableRef(Node):
    """A base table or stream reference with an optional alias."""

    name: str
    alias: Optional[str] = None


class SubqueryRef(Node):
    """A derived table: ``(SELECT ...) alias``."""

    query: "Select"
    alias: Optional[str] = None


class ValuesRef(Node):
    """An inline constant relation: ``(VALUES (1, 'a'), (2, 'b')) t``."""

    rows: tuple[tuple[Expr, ...], ...]
    alias: Optional[str] = None


class TvfCall(Node):
    """A windowing TVF in the FROM clause: ``Tumble(data => ..., ...)``."""

    name: str
    args: tuple[Expr, ...]
    alias: Optional[str] = None


class PatternElement(Node):
    """One element of a MATCH_RECOGNIZE row pattern: symbol + quantifier.

    ``quantifier`` is one of ``""`` (exactly one), ``"?"``, ``"*"``,
    ``"+"`` — all greedy, as in SQL:2016.
    """

    symbol: str
    quantifier: str = ""


class MatchRecognize(Node):
    """``<table> MATCH_RECOGNIZE (...)`` — row pattern matching.

    SQL:2016's complex-event-processing clause, which Section 6.1 of the
    paper singles out as "highly relevant to streaming SQL" when
    combined with event time semantics.  The supported subset:
    PARTITION BY, ORDER BY an event time column, MEASURES with
    FIRST/LAST/COUNT/SUM/MIN/MAX/AVG over pattern symbols, ONE ROW PER
    MATCH, AFTER MATCH SKIP PAST LAST ROW / TO NEXT ROW, and
    concatenation patterns with ``? * +`` quantifiers.
    """

    input: "TableRef"
    partition_by: tuple[ColumnRef, ...]
    order_by: ColumnRef
    measures: tuple[tuple[Expr, str], ...]
    pattern: tuple[PatternElement, ...]
    defines: tuple[tuple[str, Expr], ...]
    after_match: str = "PAST LAST ROW"
    alias: Optional[str] = None


class JoinClause(Node):
    """An explicit ``JOIN`` with join kind and optional ``ON``.

    ``as_of`` carries the correlated temporal-table access of Section 8:
    ``JOIN Rates FOR SYSTEM_TIME AS OF o.ordertime r ON ...`` joins each
    left row against the right-side *version* valid at the left row's
    own timestamp (instead of the fixed-literal AS OF standard SQL
    allows today).
    """

    left: "FromItem"
    right: "FromItem"
    kind: str  # INNER, LEFT, RIGHT, FULL, CROSS
    condition: Optional[Expr]
    as_of: Optional[Expr] = None


FromItem = Union[
    TableRef, SubqueryRef, TvfCall, JoinClause, MatchRecognize, ValuesRef
]


# --------------------------------------------------------------------
# query structure
# --------------------------------------------------------------------


class SelectItem(Node):
    """One select-list entry: an expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None


class OrderItem(Node):
    """One ``ORDER BY`` key."""

    expr: Expr
    ascending: bool = True


class Select(Node):
    """A SELECT statement (or subquery)."""

    items: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...] = ()
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False
    emit: Optional[EmitSpec] = None


class Union_(Node):
    """``query UNION|INTERSECT|EXCEPT [ALL] query``.

    ``op`` is "UNION", "INTERSECT", or "EXCEPT"; EMIT may apply at the
    top level only.
    """

    left: "Statement"
    right: "Statement"
    all: bool = False
    emit: Optional[EmitSpec] = None
    op: str = "UNION"


Statement = Union[Select, Union_]


def _finish(classes) -> None:
    """Give each node class its field tuple, its ``_key`` and its
    ``__init__`` — the source of every ``__init__`` compiled in one
    ``exec``."""
    namespace, source = {}, []
    for cls in classes:
        fields = tuple(vars(cls).get("__annotations__", ()))
        cls.__match_args__ = fields
        # (a node without fields is keyed by its class: all are equal)
        cls._key = attrgetter(*fields) if fields else type
        params = []
        for name in fields:
            if name in vars(cls):
                namespace[f"{cls.__name__}_{name}"] = vars(cls)[name]
                name = f"{name}={cls.__name__}_{name}"
            params.append(f"{name}, ")
        stores = "".join(f", {name}={name}" for name in fields)
        source.append(
            f"def {cls.__name__}(self, {''.join(params)}*, pos=-1):\n"
            f"    self.__dict__.update(pos=pos{stores})\n"
        )
    exec("".join(source), namespace)
    for cls in classes:
        cls.__init__ = namespace[cls.__name__]


_finish(Node.__subclasses__())
