"""Schemas: typed, named columns with event-time metadata.

Extension 1 of the paper makes "event time column" a property stored
*alongside the schema*: a distinguished ``TIMESTAMP`` column whose
values are covered by a watermark.  :class:`Column` therefore carries an
``event_time`` flag, and operators in the planner decide whether the
flag survives each transformation (verbatim forwarding preserves it,
arbitrary expressions degrade it to a plain timestamp — the alignment
lesson of Section 5 / Appendix B.2.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

from .errors import SchemaError

__all__ = ["SqlType", "Column", "Schema"]


class SqlType(enum.Enum):
    """The scalar types understood by the engine."""

    INT = "INT"
    FLOAT = "FLOAT"
    STRING = "VARCHAR"
    BOOL = "BOOLEAN"
    TIMESTAMP = "TIMESTAMP"
    INTERVAL = "INTERVAL"
    NULL = "NULL"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_numeric(self) -> bool:
        return self in (SqlType.INT, SqlType.FLOAT)

    @property
    def is_temporal(self) -> bool:
        return self in (SqlType.TIMESTAMP, SqlType.INTERVAL)

    def is_comparable_with(self, other: "SqlType") -> bool:
        """Whether ``<`` / ``=`` comparisons between the types are sensible."""
        if self is other:
            return True
        if SqlType.NULL in (self, other):
            return True
        if self.is_numeric and other.is_numeric:
            return True
        # Timestamps compare with intervals only through arithmetic, not
        # directly; a timestamp +/- interval yields a timestamp.
        return False


@dataclass(frozen=True)
class Column:
    """A named, typed column.

    ``event_time=True`` marks a watermarked event time column in the
    sense of the paper's Extension 1.  Only ``TIMESTAMP`` columns may
    carry the flag.
    """

    name: str
    type: SqlType
    event_time: bool = False

    def __post_init__(self) -> None:
        if self.event_time and self.type is not SqlType.TIMESTAMP:
            raise SchemaError(
                f"column {self.name!r}: only TIMESTAMP columns can be "
                f"event time columns, got {self.type}"
            )

    def degraded(self) -> "Column":
        """This column with event-time alignment dropped."""
        if not self.event_time:
            return self
        return replace(self, event_time=False)

    def renamed(self, name: str) -> "Column":
        return replace(self, name=name)

    def __str__(self) -> str:
        marker = " *EVENT TIME*" if self.event_time else ""
        return f"{self.name} {self.type}{marker}"


@dataclass(frozen=True)
class Schema:
    """An ordered collection of uniquely named columns."""

    columns: tuple[Column, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __init__(self, columns: Iterable[Column]):
        cols = tuple(columns)
        index: dict[str, int] = {}
        for i, col in enumerate(cols):
            key = col.name.lower()
            if key in index:
                raise SchemaError(f"duplicate column name {col.name!r}")
            index[key] = i
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_index", index)

    # -- lookups -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._index

    def index_of(self, name: str) -> int:
        """Index of the column called ``name`` (case-insensitive)."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; schema has {self.column_names()}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def event_time_columns(self) -> list[Column]:
        """The watermarked event time columns of this schema."""
        return [c for c in self.columns if c.event_time]

    # -- derivation ----------------------------------------------------

    def with_columns(self, extra: Sequence[Column]) -> "Schema":
        """A new schema with ``extra`` appended."""
        return Schema(self.columns + tuple(extra))

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join output: this schema followed by ``other``.

        Name collisions are disambiguated with a numeric suffix, the way
        most engines label duplicate join columns.
        """
        taken = {c.name.lower() for c in self.columns}
        merged = list(self.columns)
        for col in other.columns:
            name = col.name
            n = 0
            while name.lower() in taken:
                name = f"{col.name}{n}"
                n += 1
            taken.add(name.lower())
            merged.append(col if name == col.name else col.renamed(name))
        return Schema(merged)

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema restricted to ``names``, in the given order."""
        return Schema([self.column(n) for n in names])

    def renamed(self, names: Sequence[str]) -> "Schema":
        """This schema with columns renamed positionally."""
        if len(names) != len(self.columns):
            raise SchemaError(
                f"rename expects {len(self.columns)} names, got {len(names)}"
            )
        return Schema([c.renamed(n) for c, n in zip(self.columns, names)])

    def degraded(self) -> "Schema":
        """This schema with all event-time flags dropped."""
        return Schema([c.degraded() for c in self.columns])

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.columns) + ")"


def int_col(name: str) -> Column:
    """Shorthand for an ``INT`` column."""
    return Column(name, SqlType.INT)


def float_col(name: str) -> Column:
    """Shorthand for a ``FLOAT`` column."""
    return Column(name, SqlType.FLOAT)


def string_col(name: str) -> Column:
    """Shorthand for a ``VARCHAR`` column."""
    return Column(name, SqlType.STRING)


def bool_col(name: str) -> Column:
    """Shorthand for a ``BOOLEAN`` column."""
    return Column(name, SqlType.BOOL)


def timestamp_col(name: str, event_time: bool = False) -> Column:
    """Shorthand for a ``TIMESTAMP`` column, optionally watermarked."""
    return Column(name, SqlType.TIMESTAMP, event_time=event_time)


__all__ += ["int_col", "float_col", "string_col", "bool_col", "timestamp_col"]
