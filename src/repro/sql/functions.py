"""Function registry: scalar functions and retractable aggregates.

Scalar functions are plain Python callables registered with a return
type rule.  Aggregates follow the *add/retract/result* protocol the
incremental executor needs: when the input to an aggregation is itself
a changelog (e.g. the output of another query), retractions must undo
prior additions, which is why ``MIN``/``MAX`` keep a sorted multiset
rather than a single extreme (Appendix B.2.3's discussion of operator
state).

Users can extend the registry through
:meth:`repro.engine.StreamEngine.register_function` — NEXMark's
``DOLTOEUR`` is registered exactly that way in the benchmarks.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core.containers import SortedMultiset
from ..core.errors import ValidationError
from ..core.schema import SqlType

__all__ = [
    "ScalarFunction",
    "AggregateFunction",
    "FunctionRegistry",
    "default_registry",
    "AGGREGATE_NAMES",
]


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function: an implementation plus a return-type rule.

    ``null_propagating`` functions return NULL whenever any argument is
    NULL without invoking the implementation (the SQL default).
    """

    name: str
    impl: Callable[..., Any]
    return_type: Callable[[list[SqlType]], SqlType]
    min_args: int
    max_args: int
    null_propagating: bool = True

    def check_arity(self, n: int) -> None:
        if not (self.min_args <= n <= self.max_args):
            raise ValidationError(
                f"{self.name} expects between {self.min_args} and "
                f"{self.max_args} arguments, got {n}"
            )


class AggregateFunction:
    """Protocol for incremental aggregates with retraction support."""

    name: str = ""

    #: Whether shard-local partial aggregation may stand in for this
    #: function: partial state folded per shard and merged at the
    #: combine stage must equal feeding every row to one accumulator.
    #: The built-in COUNT/SUM/AVG/MIN/MAX opt in; anything else
    #: (including user registrations) defaults to single-phase so an
    #: unknown function can never be silently split.
    decomposable: bool = False

    def return_type(self, arg_type: Optional[SqlType]) -> SqlType:
        raise NotImplementedError

    def create(self) -> Any:
        """A fresh accumulator."""
        raise NotImplementedError

    def add(self, acc: Any, value: Any) -> None:
        raise NotImplementedError

    def retract(self, acc: Any, value: Any) -> None:
        raise NotImplementedError

    def result(self, acc: Any) -> Any:
        raise NotImplementedError

    # -- two-phase delta protocol ---------------------------------------
    #
    # A *delta* is a shard-batch-local summary of adds and retracts,
    # folded cheaply per row and shipped to the combine stage once per
    # micro-batch.  The generic encoding below — the literal value
    # lists — is correct for any function; numeric functions override
    # it with O(1) accumulator-shaped deltas (COUNT ships one integer,
    # SUM/AVG a (total, count) pair).

    def delta_create(self) -> Any:
        """A fresh per-batch delta builder."""
        return ([], [])

    def delta_add(self, delta: Any, value: Any) -> None:
        delta[0].append(value)

    def delta_retract(self, delta: Any, value: Any) -> None:
        delta[1].append(value)

    def delta_freeze(self, delta: Any) -> Any:
        """A hashable, picklable form of the builder for the payload."""
        return (tuple(delta[0]), tuple(delta[1]))

    def delta_apply(self, acc: Any, frozen: Any) -> None:
        """Fold one frozen delta into a combine-stage accumulator.

        Adds apply before retracts so a value inserted and removed
        within the same batch passes through multiset state cleanly.
        """
        adds, removes = frozen
        for value in adds:
            self.add(acc, value)
        for value in removes:
            self.retract(acc, value)


class _Count(AggregateFunction):
    """COUNT(x): number of non-null inputs; COUNT(*) counts rows."""

    name = "COUNT"
    decomposable = True

    def __init__(self, star: bool = False):
        self._star = star

    def return_type(self, arg_type: Optional[SqlType]) -> SqlType:
        return SqlType.INT

    def create(self) -> list[int]:
        return [0]

    def add(self, acc: list[int], value: Any) -> None:
        if self._star or value is not None:
            acc[0] += 1

    def retract(self, acc: list[int], value: Any) -> None:
        if self._star or value is not None:
            acc[0] -= 1

    def result(self, acc: list[int]) -> int:
        return acc[0]

    # delta: one signed integer per (group, batch)
    def delta_create(self) -> list[int]:
        return [0]

    def delta_add(self, delta: list[int], value: Any) -> None:
        if self._star or value is not None:
            delta[0] += 1

    def delta_retract(self, delta: list[int], value: Any) -> None:
        if self._star or value is not None:
            delta[0] -= 1

    def delta_freeze(self, delta: list[int]) -> int:
        return delta[0]

    def delta_apply(self, acc: list[int], frozen: int) -> None:
        acc[0] += frozen


class _Sum(AggregateFunction):
    """SUM(x): NULL over an empty (or all-null) group, like SQL."""

    name = "SUM"
    decomposable = True

    def return_type(self, arg_type: Optional[SqlType]) -> SqlType:
        if arg_type is None or not arg_type.is_numeric:
            raise ValidationError(f"SUM requires a numeric argument, got {arg_type}")
        return arg_type

    def create(self) -> list:
        return [0, 0]  # running sum, non-null count

    def add(self, acc: list, value: Any) -> None:
        if value is not None:
            acc[0] += value
            acc[1] += 1

    def retract(self, acc: list, value: Any) -> None:
        if value is not None:
            acc[0] -= value
            acc[1] -= 1

    def result(self, acc: list) -> Any:
        return acc[0] if acc[1] else None

    # delta: a (sum, non-null count) pair — same shape as the
    # accumulator, so folding is two additions
    def delta_create(self) -> list:
        return [0, 0]

    def delta_add(self, delta: list, value: Any) -> None:
        if value is not None:
            delta[0] += value
            delta[1] += 1

    def delta_retract(self, delta: list, value: Any) -> None:
        if value is not None:
            delta[0] -= value
            delta[1] -= 1

    def delta_freeze(self, delta: list) -> tuple:
        return (delta[0], delta[1])

    def delta_apply(self, acc: list, frozen: tuple) -> None:
        acc[0] += frozen[0]
        acc[1] += frozen[1]


class _Avg(AggregateFunction):
    """AVG(x): arithmetic mean of non-null inputs."""

    name = "AVG"
    decomposable = True

    def return_type(self, arg_type: Optional[SqlType]) -> SqlType:
        if arg_type is None or not arg_type.is_numeric:
            raise ValidationError(f"AVG requires a numeric argument, got {arg_type}")
        return SqlType.FLOAT

    def create(self) -> list:
        return [0, 0]

    def add(self, acc: list, value: Any) -> None:
        if value is not None:
            acc[0] += value
            acc[1] += 1

    def retract(self, acc: list, value: Any) -> None:
        if value is not None:
            acc[0] -= value
            acc[1] -= 1

    def result(self, acc: list) -> Any:
        return acc[0] / acc[1] if acc[1] else None

    # delta: (sum, count), identical to SUM's
    def delta_create(self) -> list:
        return [0, 0]

    def delta_add(self, delta: list, value: Any) -> None:
        if value is not None:
            delta[0] += value
            delta[1] += 1

    def delta_retract(self, delta: list, value: Any) -> None:
        if value is not None:
            delta[0] -= value
            delta[1] -= 1

    def delta_freeze(self, delta: list) -> tuple:
        return (delta[0], delta[1])

    def delta_apply(self, acc: list, frozen: tuple) -> None:
        acc[0] += frozen[0]
        acc[1] += frozen[1]


class _Extreme(AggregateFunction):
    """Shared implementation of MIN and MAX.

    Keeps the whole multiset so a retraction of the current extreme can
    reveal the runner-up.  Decomposable via the generic value-list
    delta: every value still reaches the combine-stage multiset (there
    is no smaller exact summary that supports retraction), but batched
    into one payload instead of one changelog entry per row.
    """

    decomposable = True

    def __init__(self, name: str):
        self.name = name
        self._take_last = name == "MAX"

    def return_type(self, arg_type: Optional[SqlType]) -> SqlType:
        if arg_type is None:
            raise ValidationError(f"{self.name} requires an argument")
        return arg_type

    def create(self) -> SortedMultiset:
        return SortedMultiset()

    # add/result run once per input row on the hot aggregation path, so
    # both work on the multiset's backing list directly — one frame per
    # row instead of three.

    def add(self, acc: SortedMultiset, value: Any) -> None:
        if value is not None:
            insort(acc._items, value)

    def retract(self, acc: SortedMultiset, value: Any) -> None:
        if value is not None:
            acc.remove(value)

    def result(self, acc: SortedMultiset) -> Any:
        items = acc._items
        if not items:
            return None
        return items[-1] if self._take_last else items[0]

    def delta_add(self, delta: Any, value: Any) -> None:
        if value is not None:
            delta[0].append(value)

    def delta_retract(self, delta: Any, value: Any) -> None:
        if value is not None:
            delta[1].append(value)


class _Variance(AggregateFunction):
    """VAR_POP / VAR_SAMP / STDDEV_POP / STDDEV_SAMP.

    Maintains (count, sum, sum of squares), which supports exact
    retraction; the result is derived on demand.

    Left out of two-phase splitting (``decomposable`` stays False):
    merging float partial sums changes the accumulation order, and
    the cancellation guard in :meth:`result` makes that observable.
    """

    def __init__(self, name: str):
        self.name = name
        self._sample = name.endswith("_SAMP")
        self._sqrt = name.startswith("STDDEV")

    def return_type(self, arg_type: Optional[SqlType]) -> SqlType:
        if arg_type is None or not arg_type.is_numeric:
            raise ValidationError(
                f"{self.name} requires a numeric argument, got {arg_type}"
            )
        return SqlType.FLOAT

    def create(self) -> list:
        return [0, 0.0, 0.0]  # count, sum, sum of squares

    def add(self, acc: list, value: Any) -> None:
        if value is not None:
            acc[0] += 1
            acc[1] += value
            acc[2] += value * value

    def retract(self, acc: list, value: Any) -> None:
        if value is not None:
            acc[0] -= 1
            acc[1] -= value
            acc[2] -= value * value

    def result(self, acc: list) -> Any:
        count, total, squares = acc
        denominator = count - 1 if self._sample else count
        if denominator <= 0:
            return None
        variance = (squares - total * total / count) / denominator
        variance = max(variance, 0.0)  # guard FP cancellation
        return math.sqrt(variance) if self._sqrt else variance


#: Names the planner treats as aggregate calls.
AGGREGATE_NAMES = frozenset(
    {
        "COUNT", "SUM", "AVG", "MIN", "MAX",
        "VAR_POP", "VAR_SAMP", "STDDEV_POP", "STDDEV_SAMP",
    }
)


class FunctionRegistry:
    """Lookup for scalar and aggregate functions, user-extensible."""

    def __init__(self) -> None:
        self._scalars: dict[str, ScalarFunction] = {}
        self._aggregates: dict[str, Callable[[bool], AggregateFunction]] = {}

    # -- scalar ---------------------------------------------------------

    def register_scalar(
        self,
        name: str,
        impl: Callable[..., Any],
        return_type: SqlType | Callable[[list[SqlType]], SqlType],
        min_args: int,
        max_args: int | None = None,
        null_propagating: bool = True,
    ) -> None:
        """Register (or replace) a scalar function."""
        if not callable(return_type):
            fixed = return_type
            return_type = lambda arg_types: fixed  # noqa: E731
        self._scalars[name.upper()] = ScalarFunction(
            name.upper(),
            impl,
            return_type,
            min_args,
            max_args if max_args is not None else min_args,
            null_propagating,
        )

    def scalar(self, name: str) -> ScalarFunction:
        try:
            return self._scalars[name.upper()]
        except KeyError:
            raise ValidationError(f"unknown function {name}") from None

    def has_scalar(self, name: str) -> bool:
        return name.upper() in self._scalars

    # -- aggregate ------------------------------------------------------

    def aggregate(self, name: str, star: bool = False) -> AggregateFunction:
        try:
            factory = self._aggregates[name.upper()]
        except KeyError:
            raise ValidationError(f"unknown aggregate function {name}") from None
        return factory(star)

    def is_aggregate(self, name: str) -> bool:
        return name.upper() in self._aggregates

    def register_aggregate(
        self, name: str, factory: Callable[[bool], AggregateFunction]
    ) -> None:
        self._aggregates[name.upper()] = factory

    def copy(self) -> "FunctionRegistry":
        clone = FunctionRegistry()
        clone._scalars = dict(self._scalars)
        clone._aggregates = dict(self._aggregates)
        return clone


def _same_as_first(arg_types: list[SqlType]) -> SqlType:
    return arg_types[0] if arg_types else SqlType.NULL


def _coalesce_type(arg_types: list[SqlType]) -> SqlType:
    for t in arg_types:
        if t is not SqlType.NULL:
            return t
    return SqlType.NULL


def default_registry() -> FunctionRegistry:
    """The registry with the built-in SQL functions."""
    reg = FunctionRegistry()
    reg.register_scalar("ABS", abs, _same_as_first, 1)
    reg.register_scalar("UPPER", str.upper, SqlType.STRING, 1)
    reg.register_scalar("LOWER", str.lower, SqlType.STRING, 1)
    reg.register_scalar("LENGTH", len, SqlType.INT, 1)
    reg.register_scalar("CHAR_LENGTH", len, SqlType.INT, 1)
    reg.register_scalar(
        "SUBSTRING",
        lambda s, start, length=None: (
            s[start - 1 :] if length is None else s[start - 1 : start - 1 + length]
        ),
        SqlType.STRING,
        2,
        3,
    )
    reg.register_scalar(
        "CONCAT", lambda *parts: "".join(str(p) for p in parts), SqlType.STRING, 1, 64
    )
    reg.register_scalar(
        "COALESCE",
        lambda *vals: next((v for v in vals if v is not None), None),
        _coalesce_type,
        1,
        64,
        null_propagating=False,
    )
    reg.register_scalar(
        "NULLIF",
        lambda a, b: None if a == b else a,
        _same_as_first,
        2,
        null_propagating=False,
    )
    reg.register_scalar("FLOOR", math.floor, SqlType.INT, 1)
    reg.register_scalar("CEIL", math.ceil, SqlType.INT, 1)
    reg.register_scalar("CEILING", math.ceil, SqlType.INT, 1)
    reg.register_scalar("ROUND", round, _same_as_first, 1, 2)
    reg.register_scalar("POWER", lambda a, b: a**b, SqlType.FLOAT, 2)
    reg.register_scalar("SQRT", math.sqrt, SqlType.FLOAT, 1)
    reg.register_scalar("LN", math.log, SqlType.FLOAT, 1)
    reg.register_scalar("EXP", math.exp, SqlType.FLOAT, 1)
    reg.register_scalar("GREATEST", max, _same_as_first, 1, 64)
    reg.register_scalar("LEAST", min, _same_as_first, 1, 64)

    reg.register_aggregate("COUNT", lambda star: _Count(star))
    reg.register_aggregate("SUM", lambda star: _Sum())
    reg.register_aggregate("AVG", lambda star: _Avg())
    reg.register_aggregate("MIN", lambda star: _Extreme("MIN"))
    reg.register_aggregate("MAX", lambda star: _Extreme("MAX"))
    for name in ("VAR_POP", "VAR_SAMP", "STDDEV_POP", "STDDEV_SAMP"):
        reg.register_aggregate(name, lambda star, n=name: _Variance(n))
    return reg
