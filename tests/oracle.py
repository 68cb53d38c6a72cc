"""A naive snapshot evaluator: the referee from outside the engine.

Snapshot reducibility (Dignös et al.; the paper's §3 pointwise
semantics): a query over time-varying relations denotes, at every
processing-time instant t, the query evaluated over the input
snapshots at t.  This module evaluates that right-hand side the
stupidest way there is — rebuild every snapshot from the raw events,
then run the query over bags of tuples — so a bug the engine shares
across all its configurations still shows up here.  It shares no code
with ``repro.exec`` or ``repro.plan.pipeline``; the only engine types it
touches are the input events and the result bag,
:class:`~repro.core.relation.Relation`.

Covered: scan, filter, project, ``Tumble``, grouped ``COUNT(*)`` /
``COUNT(x)`` / ``SUM`` / ``MIN`` / ``MAX`` / ``AVG`` and an unbounded
inner equi-join on ``k``.  The one rule that is not a snapshot rule is
lateness, stated naively: a change reaching an aggregate is dropped
when its ``wend`` is at or below the last watermark *before* its
``ptime`` (watermarks here sit at instants of their own).
docs/SEMANTICS.md lists what is not covered yet.

A query is a :class:`Query` spec; :meth:`Query.sql` spells it for the
engine, :func:`evaluate` evaluates it here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.core.relation import Relation
from repro.core.schema import Schema, int_col
from repro.core.tvr import RowEvent

#: the columns of every generated source, ``S`` and ``R``
COLUMNS = ("k", "ts", "v")
AGGREGATES = ("COUNT(*)", "COUNT(v)", "SUM(v)", "MIN(v)", "MAX(v)", "AVG(v)")
OPS = {">": lambda a, b: a > b, "=": lambda a, b: a == b, "<>": lambda a, b: a != b}


@dataclass(frozen=True)
class Query:
    """``SELECT`` over ``S`` (or ``S JOIN R ON S.k = R.k``).

    ``where`` is ``(column, op, constant)``; ``select`` names the output
    columns of a projection (``S.v``-style names for a join);
    ``window`` (ms, whole minutes) makes the query a tumbling-window
    aggregate grouped by ``keys`` — ``("wend",)`` or ``("k", "wend")``
    — computing ``aggs`` (entries of :data:`AGGREGATES`).  A join is
    only projected."""

    join: bool = False
    where: Optional[tuple[str, str, int]] = None
    select: tuple[str, ...] = ("k", "v")
    window: Optional[int] = None
    keys: tuple[str, ...] = ("wend",)
    aggs: tuple[str, ...] = ()

    def sql(self) -> str:
        if self.join:
            source = "S JOIN R ON S.k = R.k"
        elif self.window is not None:
            source = (
                "Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
                f"dur => INTERVAL '{self.window // 60_000}' MINUTE) T"
            )
        else:
            source = "S"
        where = ""
        if self.where is not None:
            column, op, constant = self.where
            where = f" WHERE {column} {op} {constant}"
        if self.window is None:
            select = ", ".join(f"{c} AS {c.replace('.', '_')}" for c in self.select)
            return f"SELECT {select} FROM {source}{where}"
        items = [*self.keys] + [f"{a} AS a{i}" for i, a in enumerate(self.aggs)]
        return (
            f"SELECT {', '.join(items)} FROM {source}{where} "
            f"GROUP BY {', '.join(self.keys)}"
        )

    def width(self) -> int:
        if self.window is None:
            return len(self.select)
        return len(self.keys) + len(self.aggs)


def bag(width: int, rows) -> Relation:
    """``rows`` as a bag (names and types play no part in bag equality)."""
    return Relation(Schema([int_col(f"c{i}") for i in range(width)]), rows)


def _sign(event: RowEvent) -> int:
    return 1 if event.change.kind.name == "INSERT" else -1


def snapshot(events: list, t: int) -> Counter:
    """The bag of rows a source holds at processing time ``t``."""
    rows: Counter = Counter()
    for event in events:
        if event.ptime > t:
            break
        if isinstance(event, RowEvent):
            rows[event.change.values] += _sign(event)
    return +rows


def watermark_before(events: list, ptime: int) -> Optional[int]:
    """The last watermark a source announced strictly before ``ptime``
    (``None``: none yet)."""
    value = None
    for event in events:
        if event.ptime >= ptime:
            break
        if not isinstance(event, RowEvent):
            value = event.value
    return value


def _named(row: tuple, prefix: str = "") -> dict:
    return {prefix + c: value for c, value in zip(COLUMNS, row)}


def _where(query: Query, row: dict) -> bool:
    if query.where is None:
        return True
    column, op, constant = query.where
    value = row[column]
    return value is not None and OPS[op](value, constant)


def _aggregate(agg: str, rows: list[dict]):
    if agg == "COUNT(*)":
        return len(rows)
    values = [row["v"] for row in rows if row["v"] is not None]
    if agg == "COUNT(v)":
        return len(values)
    if not values:
        return None
    if agg == "SUM(v)":
        return sum(values)
    if agg == "MIN(v)":
        return min(values)
    if agg == "MAX(v)":
        return max(values)
    return sum(values) / len(values)  # AVG


def evaluate(query: Query, sources: dict[str, list], t: int) -> Relation:
    """``query`` over the snapshots of ``sources`` (name -> events, in
    processing-time order) at processing time ``t``, as a bag."""
    if query.window is not None:
        return _windowed(query, sources["S"], t)
    if query.join:
        rows = [
            {**_named(s, "S."), **_named(r, "R.")}
            for s, s_count in snapshot(sources["S"], t).items()
            for r, r_count in snapshot(sources["R"], t).items()
            if s[0] is not None and s[0] == r[0]
            for _ in range(s_count * r_count)
        ]
    else:
        rows = [
            _named(row)
            for row, count in snapshot(sources["S"], t).items()
            for _ in range(count)
        ]
    return bag(query.width(), [
        tuple(row[c] for c in query.select) for row in rows if _where(query, row)
    ])


def _windowed(query: Query, events: list, t: int) -> Relation:
    """The aggregate over the on-time part of the input at ``t``: each
    change up to ``t`` is kept or dropped by the naive late rule, the
    kept ones are folded into one bag, and the bag is grouped."""
    size = query.window
    kept: Counter = Counter()
    for event in events:
        if event.ptime > t:
            break
        if not isinstance(event, RowEvent):
            continue
        row = _named(event.change.values)
        row["wend"] = row["ts"] - row["ts"] % size + size
        mark = watermark_before(events, event.ptime)
        if not _where(query, row) or (mark is not None and row["wend"] <= mark):
            continue
        kept[tuple(sorted(row.items()))] += _sign(event)
    groups: dict[tuple, list[dict]] = {}
    for key, count in (+kept).items():
        row = dict(key)
        groups.setdefault(tuple(row[k] for k in query.keys), []).extend(
            [row] * count
        )
    return bag(query.width(), [
        group + tuple(_aggregate(agg, rows) for agg in query.aggs)
        for group, rows in groups.items()
    ])
