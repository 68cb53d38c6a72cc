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
    """Protocol for incremental aggregates with retraction support.

    A built-in function says its transition once, as **source
    templates**: ``create_src`` an expression of a fresh accumulator,
    ``insert_src`` / ``retract_src`` statements applying value ``{v}``
    to accumulator ``{a}``, ``result_src`` an expression of the result
    (names they use beside ``{a}``/``{v}`` come from
    :data:`TEMPLATE_GLOBALS`).  The generated fold of
    :func:`repro.exec.codegen.fold_kernel` splices them into its loop,
    and the methods below are compiled from them for every other caller
    (OVER windows, the combine stage's deltas).  A function that leaves
    the templates ``None`` — a user registration — writes the methods
    instead, and the fold calls them.
    """

    name: str = ""

    #: Whether shard-local partial aggregation may stand in for this
    #: function: partial state folded per shard and merged at the
    #: combine stage must equal feeding every row to one accumulator.
    #: The built-in COUNT/SUM/AVG/MIN/MAX opt in; anything else
    #: (including user registrations) defaults to single-phase so an
    #: unknown function can never be silently split.
    decomposable: bool = False

    create_src: Optional[str] = None
    insert_src: Optional[str] = None
    retract_src: Optional[str] = None
    result_src: Optional[str] = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if any(name in vars(cls) for name in TEMPLATE_NAMES):
            cls.create, cls.add, cls.retract, cls.result = _compiled(cls)

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
    # lists — is correct for any function; the counting functions
    # override it with O(1) accumulator-shaped deltas (:class:`_Counted`).

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


#: The template attributes of :class:`AggregateFunction`.
TEMPLATE_NAMES = ("create_src", "insert_src", "retract_src", "result_src")
#: The names templates may use besides ``{a}`` and ``{v}``.
TEMPLATE_GLOBALS = {"insort": insort, "SortedMultiset": SortedMultiset}


def indented(text: str, depth: int) -> str:
    """``text`` indented by ``depth`` levels of four spaces."""
    return "\n".join("    " * depth + line for line in text.splitlines())


def _compiled(cls: type) -> tuple:
    """``create``, ``add``, ``retract`` and ``result`` of a templated
    function class, compiled from its templates."""
    insert, retract = (
        indented(template.format(a="acc", v="value"), 1)
        for template in (cls.insert_src, cls.retract_src)
    )
    source = "\n".join([
        "def create(self):", f"    return {cls.create_src}",
        "def add(self, acc, value):", insert,
        "def retract(self, acc, value):", retract,
        "def result(self, acc):", f"    return {cls.result_src.format(a='acc')}",
    ])
    namespace = dict(TEMPLATE_GLOBALS)
    exec(compile(source, f"<{cls.__name__} templates>", "exec"), namespace)
    return tuple(namespace[n] for n in ("create", "add", "retract", "result"))


class _Counted(AggregateFunction):
    """A function whose accumulator is a list of counts each row moves
    by its contribution (COUNT, SUM, AVG): a per-batch delta is an
    accumulator of its own — COUNT ships one integer, SUM/AVG a
    (total, count) pair — and merging adds it in."""

    decomposable = True

    def delta_create(self) -> list:
        return self.create()

    def delta_add(self, delta: list, value: Any) -> None:
        self.add(delta, value)

    def delta_retract(self, delta: list, value: Any) -> None:
        self.retract(delta, value)

    def delta_freeze(self, delta: list) -> Any:
        return delta[0] if len(delta) == 1 else tuple(delta)

    def delta_apply(self, acc: list, frozen: Any) -> None:
        for i, part in enumerate(frozen if len(acc) > 1 else (frozen,)):
            acc[i] += part


class _Count(_Counted):
    """COUNT(x): number of non-null inputs."""

    name = "COUNT"
    create_src = "[0]"
    insert_src = "if {v} is not None:\n    {a}[0] += 1"
    retract_src = "if {v} is not None:\n    {a}[0] -= 1"
    result_src = "{a}[0]"

    def return_type(self, arg_type: Optional[SqlType]) -> SqlType:
        return SqlType.INT


class _CountStar(_Count):
    """COUNT(*): number of rows."""

    insert_src = "{a}[0] += 1"
    retract_src = "{a}[0] -= 1"


class _Sum(_Counted):
    """SUM(x): NULL over an empty (or all-null) group, like SQL."""

    name = "SUM"
    create_src = "[0, 0]"  # running sum, non-null count
    insert_src = "if {v} is not None:\n    {a}[0] += {v}\n    {a}[1] += 1"
    retract_src = "if {v} is not None:\n    {a}[0] -= {v}\n    {a}[1] -= 1"
    result_src = "{a}[0] if {a}[1] else None"

    def return_type(self, arg_type: Optional[SqlType]) -> SqlType:
        if arg_type is None or not arg_type.is_numeric:
            raise ValidationError(
                f"{self.name} requires a numeric argument, got {arg_type}"
            )
        return arg_type


class _Avg(_Sum):
    """AVG(x): arithmetic mean of non-null inputs."""

    name = "AVG"
    result_src = "{a}[0] / {a}[1] if {a}[1] else None"

    def return_type(self, arg_type: Optional[SqlType]) -> SqlType:
        super().return_type(arg_type)
        return SqlType.FLOAT


class _Min(AggregateFunction):
    """MIN (and, through :class:`_Max`, MAX).

    Keeps the whole multiset so a retraction of the current extreme can
    reveal the runner-up.  Decomposable via the generic value-list
    delta: every value still reaches the combine-stage multiset (there
    is no smaller exact summary that supports retraction), but batched
    into one payload instead of one changelog entry per row.
    """

    name = "MIN"
    decomposable = True
    create_src = "SortedMultiset()"
    insert_src = "if {v} is not None:\n    insort({a}._items, {v})"
    retract_src = "if {v} is not None:\n    {a}.remove({v})"
    result_src = "({a}._items[0] if {a}._items else None)"

    def return_type(self, arg_type: Optional[SqlType]) -> SqlType:
        if arg_type is None:
            raise ValidationError(f"{self.name} requires an argument")
        return arg_type

    def delta_add(self, delta: Any, value: Any) -> None:
        if value is not None:
            delta[0].append(value)

    def delta_retract(self, delta: Any, value: Any) -> None:
        if value is not None:
            delta[1].append(value)


class _Max(_Min):
    """MAX: the multiset's last item."""

    name = "MAX"
    result_src = "({a}._items[-1] if {a}._items else None)"


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

    reg.register_aggregate("COUNT", lambda star: _CountStar() if star else _Count())
    reg.register_aggregate("SUM", lambda star: _Sum())
    reg.register_aggregate("AVG", lambda star: _Avg())
    reg.register_aggregate("MIN", lambda star: _Min())
    reg.register_aggregate("MAX", lambda star: _Max())
    for name in ("VAR_POP", "VAR_SAMP", "STDDEV_POP", "STDDEV_SAMP"):
        reg.register_aggregate(name, lambda star, n=name: _Variance(n))
    return reg
