"""Codegen: fused pipeline loops and aggregate fold kernels (provisional API).

``repro.plan.rex.compile_rex`` interprets expressions as a tree of
nested Python closures: every row pays one function call per node plus
the intermediate allocations between fused operators.  This module
compiles a whole pipeline — an ordered list of filter/project/tumble
steps — into a single generated Python loop, ``compile()``d once per
plan, with constants (literals, regexes, function impls, fallback
closures) bound through default arguments so the generated code reads
them as locals.

Semantics are the house rule: the generated code must be
observation-equivalent to the closure interpreter — same values, same
NULL propagation, same short-circuit laziness (the right operand of a
comparison is *not* evaluated when the left is NULL; ``AND``/``OR``
keep their Kleene early-outs), and same errors raised at the same
step.  To guarantee that, the emitter generates statement sequences
with explicit ``if`` guards rather than composing expressions
algebraically; any node it cannot express (``CASE``, ``CAST``,
``CURRENT_TIME``, exotic calls) falls back to the closure interpreter
for that sub-expression only, spliced into the generated loop as an
opaque callable.

The same machinery generates each aggregate operator's group
transition (:func:`fold_kernel`): the built-in aggregate functions
write their insert, retract, result and fresh accumulator once, as
source templates on their classes
(:class:`~repro.sql.functions.AggregateFunction`), and a list of aggregate calls becomes one
straight-line fold — DISTINCT, the combine stage's ``SUPPRESSED``, the
global aggregate and an absorbed output selection spelled inline, a
function without templates called — compiled once per shape and cached
here.  One fold body has two loop headers, as a pipeline has
``run_rows``/``run_cols``: the vector entry walks parallel key, kind,
ptime and argument vectors; the row entry walks ``Change`` objects and
reads each row's key and arguments, and applies the lateness cutoff,
inline.  A kernel takes its operator as an argument, so it holds none.

This module is **provisional**: the generated-source strategy may
change between releases.  The unfused ``FilterOperator`` →
``ProjectOperator`` chain over ``compile_rex`` closures, and
``TumbleOperator``, stay the reference implementation the generated
loops are tested against; the fold kernels are refereed by a naive
snapshot evaluator (``tests/test_fold_kernels.py``).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional, Sequence, Tuple

from ..core.changelog import Change, ChangeKind
from ..core.colbatch import ColumnarBatch
from ..core.errors import ExecutionError
from ..plan import rex as rexmod
from ..plan.rex import Rex, RexCall, RexInput, RexLiteral
from ..sql.functions import TEMPLATE_GLOBALS, TEMPLATE_NAMES, indented

__all__ = ["compile_pipeline", "fold_kernel", "PipelineFns"]

# Steps are ("filter", Rex), ("project", tuple[Rex, ...]) or
# ("tumble", (timecol, size, offset)).
Step = Tuple[str, Any]
PipelineFns = Tuple[Callable, Optional[Callable]]


class _Unsupported(Exception):
    """Raised internally when a node is not expressible; the caller
    rolls back emitted lines and splices in a closure fallback."""


def _sql_div(a, b):
    """SQL division: truncate toward zero for int/int, else true div."""
    if b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def _sql_mod(a, b):
    if b == 0:
        raise ExecutionError("division by zero")
    return a - b * int(a / b)


_CMP_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH_OPS = {"+": "+", "-": "-", "*": "*"}


class _Emitter:
    """Accumulates generated source lines and the constant environment
    bound into the generated function via default arguments."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.env: dict[str, Any] = {}
        self._n = 0

    def bind(self, value: Any, hint: str = "k") -> str:
        name = f"_{hint}{self._n}"
        self._n += 1
        self.env[name] = value
        return name

    def tmp(self) -> str:
        name = f"_t{self._n}"
        self._n += 1
        return name

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)


def _row_tuple_expr(row: Sequence[str]) -> str:
    """A tuple display rebuilding the current row for closure fallbacks."""
    if not row:
        return "()"
    if len(row) == 1:
        return f"({row[0]},)"
    return "(" + ", ".join(row) + ")"


def _atom(node: Rex, row: Sequence[str], em: _Emitter, indent: int) -> str:
    """Emit ``node`` and return a string that is safe to reference more
    than once (an identifier, literal, or indexed load).  Complex
    computations are hoisted into a temp at ``indent`` — callers must
    only ask for an atom at a point where the closure interpreter would
    also evaluate the operand unconditionally."""
    if isinstance(node, RexInput):
        return row[node.index]
    if isinstance(node, RexLiteral):
        # Always bound, never inlined: default-arg locals are as fast
        # as literals, repr(inf) is not valid source, and inlining
        # produces noisy `1 is None` guards.
        return em.bind(node.value, "lit")
    target = em.tmp()
    _compute(node, target, row, em, indent)
    return target


def _compute(
    node: Rex, target: str, row: Sequence[str], em: _Emitter, indent: int
) -> None:
    """Emit statements assigning the value of ``node`` to ``target``."""
    if isinstance(node, (RexInput, RexLiteral)):
        em.line(indent, f"{target} = {_atom(node, row, em, indent)}")
        return
    if not isinstance(node, RexCall):
        raise _Unsupported(type(node).__name__)
    op = node.op
    args = node.args

    if op == "AND" or op == "OR":
        a = _atom(args[0], row, em, indent)
        short, other = ("False", "True") if op == "AND" else ("True", "False")
        em.line(indent, f"if {a} is {short}:")
        em.line(indent + 1, f"{target} = {short}")
        em.line(indent, "else:")
        b = _atom(args[1], row, em, indent + 1)
        em.line(
            indent + 1,
            f"{target} = {short} if {b} is {short} else "
            f"(None if {a} is None or {b} is None else {other})",
        )
        return

    if op == "NOT":
        a = _atom(args[0], row, em, indent)
        em.line(indent, f"{target} = None if {a} is None else not {a}")
        return

    if op == "IS NULL":
        a = _atom(args[0], row, em, indent)
        em.line(indent, f"{target} = {a} is None")
        return

    if op == "IS NOT NULL":
        a = _atom(args[0], row, em, indent)
        em.line(indent, f"{target} = {a} is not None")
        return

    if op in _CMP_OPS or op in _ARITH_OPS or op in ("/", "%", "||"):
        # Left operand is evaluated unconditionally; the right only
        # when the left is non-NULL — mirror the closure's laziness
        # with an explicit guard.
        a = _atom(args[0], row, em, indent)
        em.line(indent, f"if {a} is None:")
        em.line(indent + 1, f"{target} = None")
        em.line(indent, "else:")
        b = _atom(args[1], row, em, indent + 1)
        if op in _CMP_OPS:
            combined = f"{a} {_CMP_OPS[op]} {b}"
        elif op in _ARITH_OPS:
            combined = f"{a} {_ARITH_OPS[op]} {b}"
        elif op == "/":
            combined = f"{em.bind(_sql_div, 'div')}({a}, {b})"
        elif op == "%":
            combined = f"{em.bind(_sql_mod, 'mod')}({a}, {b})"
        else:  # ||
            combined = f"str({a}) + str({b})"
        em.line(
            indent + 1,
            f"{target} = None if {b} is None else ({combined})",
        )
        return

    if op == "NEG":
        a = _atom(args[0], row, em, indent)
        em.line(indent, f"{target} = None if {a} is None else -{a}")
        return

    if op == "LIKE":
        if not isinstance(args[1], RexLiteral) or args[1].value is None:
            raise _Unsupported("dynamic LIKE")
        regex = em.bind(rexmod._like_to_regex(str(args[1].value)), "re")
        a = _atom(args[0], row, em, indent)
        em.line(
            indent,
            f"{target} = None if {a} is None else "
            f"bool({regex}.match(str({a})))",
        )
        return

    if op == "IN":
        # Only the all-literal membership list is compiled; anything
        # else falls back.  Kleene semantics: TRUE on a match, NULL if
        # no match but a NULL item exists, else FALSE.
        items = args[1:]
        if not all(isinstance(item, RexLiteral) for item in items):
            raise _Unsupported("non-literal IN list")
        values = [item.value for item in items]
        has_null = any(v is None for v in values)
        members = em.bind(set(v for v in values if v is not None), "inset")
        a = _atom(args[0], row, em, indent)
        miss = "None" if has_null else "False"
        em.line(
            indent,
            f"{target} = None if {a} is None else "
            f"(True if {a} in {members} else {miss})",
        )
        return

    fn = node.function
    if fn is not None:
        impl = em.bind(fn.impl, "fn")
        # The closure evaluates every argument eagerly before the
        # NULL check, so hoisting them is order-preserving.
        arg_atoms = [_atom(arg, row, em, indent) for arg in args]
        call = f"{impl}({', '.join(arg_atoms)})"
        if fn.null_propagating and arg_atoms:
            guard = " or ".join(f"{a} is None" for a in arg_atoms)
            em.line(indent, f"{target} = None if {guard} else {call}")
        else:
            em.line(indent, f"{target} = {call}")
        return

    raise _Unsupported(op)


def _emit_value(
    node: Rex, row: Sequence[str], em: _Emitter, indent: int
) -> str:
    """Emit ``node`` with closure fallback; returns a multi-ref-safe
    string for its value."""
    if isinstance(node, RexInput):
        return row[node.index]
    if isinstance(node, RexLiteral):
        return em.bind(node.value, "lit")
    target = em.tmp()
    mark = len(em.lines)
    try:
        _compute(node, target, row, em, indent)
    except _Unsupported:
        del em.lines[mark:]
        # compile_rex raises ExecutionError for CURRENT_TIME here —
        # at pipeline build time, exactly like the interpreted path.
        closure = em.bind(rexmod.compile_rex(node), "fb")
        em.line(indent, f"{target} = {closure}({_row_tuple_expr(row)})")
    return target


def _emit_tumble(
    payload: tuple, row: list[str], em: _Emitter, indent: int, columnar: bool
) -> list[str]:
    """Emit a tumble step — ``TumbleOperator``'s window assignment, with
    its error for a NULL timestamp — and return the row it produces:
    ``wstart, wend`` followed by the row it saw.  The row loop aligns
    like ``align_to_window``; the columnar loop writes the same grid
    alignment without the second multiply."""
    timecol, size, offset = payload
    ts, start = em.tmp(), em.tmp()
    em.line(indent, f"{ts} = {row[timecol]}")
    em.line(indent, f"if {ts} is None:")
    error = em.bind(ExecutionError, "EE")
    message = em.bind("NULL event timestamp in Tumble input", "msg")
    em.line(indent + 1, f"raise {error}({message})")
    width = em.bind(size, "size")
    # (A zero offset is left out: subtracting or adding 0 changes no
    # value, so both forms stay exact.)
    shift = em.bind(offset, "off") if offset else None
    shifted = f"({ts} - {shift})" if shift else ts
    if columnar:
        em.line(indent, f"{start} = {ts} - ({shifted} % {width})")
    else:
        back = f" + {shift}" if shift else ""
        em.line(indent, f"{start} = ({shifted} // {width}) * {width}{back}")
    end = em.tmp()
    em.line(indent, f"{end} = {start} + {width}")
    return [start, end] + row


def _compile_source(em: _Emitter, name: str, param: str) -> Callable:
    params = [param] + [f"{k}={k}" for k in em.env]
    source = f"def {name}({', '.join(params)}):\n" + "\n".join(em.lines)
    namespace = dict(em.env)
    exec(compile(source, "<repro-codegen>", "exec"), namespace)
    fn = namespace[name]
    fn._codegen_source = source
    return fn


def _compile_rows(steps: Sequence[Step], in_width: int) -> Callable:
    """Generate ``run_rows(changes) -> list[Change]``."""
    em = _Emitter()
    make = em.bind(Change, "Change")
    em.line(1, "_out = []")
    em.line(1, "_append = _out.append")
    em.line(1, "for _c in _changes:")
    em.line(2, "_v = _c.values")
    whole: list[str] = [f"_v[{i}]" for i in range(in_width)]
    row = whole
    for kind, payload in steps:
        if kind == "filter":
            cond = _emit_value(payload, row, em, 2)
            em.line(2, f"if {cond} is not True:")
            em.line(3, "continue")
        elif kind == "tumble":
            row = _emit_tumble(payload, row, em, 2, columnar=False)
        else:
            row = [_emit_value(expr, row, em, 2) for expr in payload]
    if row is whole:
        # Pure filters keep the original Change objects, like
        # FilterOperator does.
        em.line(2, "_append(_c)")
    else:
        if row[len(row) - in_width:] == whole and len(row) > in_width:
            # New columns in front of the row it saw (a tumble's window):
            # concatenate, like TumbleOperator does.
            values = f"{_row_tuple_expr(row[:len(row) - in_width])} + _v"
        else:
            values = _row_tuple_expr(row)
        em.line(2, f"_append({make}(_c.kind, {values}, _c.ptime))")
    em.line(1, "return _out")
    return _compile_source(em, "_run_rows", "_changes")


def _compile_cols(steps: Sequence[Step], in_width: int) -> Callable:
    """Generate ``run_cols(batch) -> ColumnarBatch``.

    Output slots are tracked symbolically: a slot is either
    ``("col", i)`` — still column ``i`` of the input, untouched — or
    ``("var",)`` — a computed scalar (a tumble step puts two in front of
    the row, its window).  Without filters, untouched
    output columns (and the kinds/ptimes/seqs vectors) are *shared* with
    the input batch and only computed columns pay a loop; with filters
    everything funnels through one generated loop that also records
    which rows it kept, and kinds/ptimes/seqs are gathered by those.
    """
    has_filter = any(kind == "filter" for kind, _ in steps)
    sym: list[tuple] = [("col", i) for i in range(in_width)]
    for kind, payload in steps:
        if kind == "project":
            sym = [
                sym[expr.index] if isinstance(expr, RexInput) else ("var", None)
                for expr in payload
            ]
        elif kind == "tumble":
            sym = [("var", None), ("var", None)] + sym

    em = _Emitter()
    cb = em.bind(ColumnarBatch, "CB")
    em.line(1, "_cols = _batch.columns")
    em.line(1, "_kinds = _batch.kinds")
    em.line(1, "_ptimes = _batch.ptimes")

    if not has_filter and all(tag == "col" for tag, _ in sym):
        # Pure column shuffle: no loop at all.
        outs = ", ".join(f"_cols[{i}]" for _, i in sym)
        em.line(
            1,
            f"return {cb}(({outs}{',' if sym else ''}), _kinds, _ptimes, "
            "_batch.seqs)",
        )
        return _compile_source(em, "_run_cols", "_batch")

    # Emit the per-row body against column loads, then decide which
    # input columns and output accumulators the prologue must set up.
    body = _Emitter()
    body._n = em._n  # keep generated names disjoint from em's binds
    row: list[str] = [f"_ic{i}[_x]" for i in range(in_width)]
    for kind, payload in steps:
        if kind == "filter":
            cond = _emit_value(payload, row, body, 2)
            body.line(2, f"if {cond} is not True:")
            body.line(3, "continue")
        elif kind == "tumble":
            row = _emit_tumble(payload, row, body, 2, columnar=True)
        else:
            row = [_emit_value(expr, row, body, 2) for expr in payload]
    width_out = len(row)

    if has_filter:
        for j in range(width_out):
            body.line(2, f"_a{j}({row[j]})")
        body.line(2, "_keep(_x)")
        out_slots = list(range(width_out))
        outs = ", ".join(f"_oc{j}" for j in range(width_out))
        tail = (
            f"return {cb}(({outs}{',' if width_out else ''}), "
            "[_kinds[_x] for _x in _kept], [_ptimes[_x] for _x in _kept], "
            "None if _seqs is None else [_seqs[_x] for _x in _kept])"
        )
    else:
        out_slots = [j for j, (tag, _) in enumerate(sym) if tag == "var"]
        for j in out_slots:
            body.line(2, f"_a{j}({row[j]})")
        parts = [
            f"_cols[{ref}]" if tag == "col" else f"_oc{j}"
            for j, (tag, ref) in enumerate(sym)
        ]
        tail = (
            f"return {cb}(({', '.join(parts)}{',' if parts else ''}), "
            "_kinds, _ptimes, _batch.seqs)"
        )

    for i in range(in_width):
        em.line(1, f"_ic{i} = _cols[{i}]")
    for j in out_slots:
        em.line(1, f"_oc{j} = []")
        em.line(1, f"_a{j} = _oc{j}.append")
    if has_filter:
        em.line(1, "_seqs = _batch.seqs")
        em.line(1, "_kept = []")
        em.line(1, "_keep = _kept.append")
    em.line(1, "for _x in range(len(_kinds)):")
    em.lines.extend(body.lines)
    em.env.update(body.env)
    em.line(1, tail)
    return _compile_source(em, "_run_cols", "_batch")


def compile_pipeline(steps: Sequence[Step], in_width: int) -> PipelineFns:
    """Compile a pipeline into ``(run_rows, run_cols)`` callables.

    Always succeeds: nodes the emitter cannot express are bound as
    closure fallbacks inside the generated loop.  Raises
    :class:`~repro.core.errors.ExecutionError` only where the
    interpreted path would too (e.g. ``CURRENT_TIME`` in a WHERE
    clause).
    """
    run_rows = _compile_rows(steps, in_width)
    run_cols = _compile_cols(steps, in_width)
    return run_rows, run_cols


# -- fold kernels --------------------------------------------------------------

#: The body of every fold; ``{header}`` is the vector or the row entry's
#: loop header, the other ``{...}`` are filled from the shape.
_FOLD = """\
{prologue}
    groups = op._groups
    out = []
    append = out.append
    net = created = 0
    held = state = None
    try:
{header}
            if key is not held or state is None:
                held = key
                state = groups.get(key)
                if state is None:
                    state = groups[key] = _GroupState([{creates}], [{counts}])
                    created += 1
            {unpack} = state.accumulators
            if kind is _INSERT:
                state.row_count += 1
                net += 1
{inserts}
            else:
                if state.row_count <= 0:
                    raise _underflow(key)
                state.row_count -= 1
                net -= 1
{retracts}
            emitted = state.emitted
            if {emptied}:
                if emitted is not None:
                    append(_Change(_RETRACT, {select}(emitted), ptime))
                del groups[key]
                state = None
                continue
            row = key + {results}
            if row == emitted:
                continue
            if emitted is not None:
                append(_Change(_RETRACT, {select}(emitted), ptime))
            append(_Change(_INSERT, {select}(row), ptime))
            state.emitted = row
    finally:
        op._retained += net
        op._groups_created += created
    return out"""

#: What a DISTINCT aggregate wraps its insert and retract in: only a
#: value's first occurrence reaches the accumulator, only its last
#: removal leaves it, and the combine stage's SUPPRESSED does neither.
_DISTINCT = (
    "if {v} is not _SUPPRESSED:\n    seen = {d}.get({v}, 0)\n"
    "    {d}[{v}] = seen + 1\n    if not seen:\n",
    "if {v} is not _SUPPRESSED:\n    seen = {d}.get({v}, 0)\n"
    "    if seen > 1:\n        {d}[{v}] = seen - 1\n    else:\n"
    "        {d}.pop({v}, None)\n",
)


def fold_kernel(aggs: Sequence, is_global: bool, selects: bool, rows=None) -> Callable:
    """The generated group transition of an aggregate operator ``op``
    computing ``aggs``, in one of two entries over one fold body.

    The vector entry, ``fold(op, keys, kinds, ptimes, arg_cols)``,
    folds row ``i`` as ``kinds[i]`` of one occurrence in group
    ``keys[i]`` at ``ptimes[i]``, with ``arg_cols[a][i]`` the argument
    of aggregate ``a``; lateness is its caller's business (the columnar
    path drops late rows first, the combine stage must not re-apply
    it).  The row entry, ``fold(op, changes)``, is generated when
    ``rows`` gives the row layout ``(group_indices, arg_indices,
    event_time_positions)``: its loop header reads each ``Change``'s
    key and arguments inline and drops a late row there — one whose
    every event-time key is at or below ``op.input_watermark -
    op._allowed_lateness`` — counting it into ``op.late_dropped``.

    Per row the fold finds or creates the group, applies the
    insert/retract to its accumulators, then settles its output row: an
    emptied group retracts its row and is dropped (a global aggregate's
    never is), a moved row is retracted and re-inserted (through
    ``op._select`` when ``selects``).  Each function's templates
    are spliced in as statements
    (:class:`~repro.sql.functions.AggregateFunction`); a function
    without them is called.  The fold reads all state through ``op``, so
    it holds no operator and operators of one shape share it.
    """
    shape = tuple(
        (*(getattr(agg.function, name) for name in TEMPLATE_NAMES), agg.distinct)
        for agg in aggs
    )
    return _compile_fold(shape, is_global, selects, rows)


@functools.cache  # one compiled fold per shape
def _compile_fold(shape: tuple, is_global: bool, selects: bool, rows) -> Callable:
    from .operators.aggregate import SUPPRESSED, _GroupState, _underflow

    em = _Emitter()
    em.env.update(
        TEMPLATE_GLOBALS, _Change=Change, _INSERT=ChangeKind.INSERT,
        _RETRACT=ChangeKind.RETRACT, _GroupState=_GroupState,
        _SUPPRESSED=SUPPRESSED, _underflow=_underflow,
    )
    prologue = ["    select = op._select" if selects else ""]
    parts: dict[str, list] = {n: [] for n in ("creates", "inserts", "retracts", "results")}
    reads = []
    for i, (*templates, distinct) in enumerate(shape):
        if templates[1] is None:  # no templates: call the methods
            prologue.append(f"    f{i} = op._aggs[{i}].function")
            templates = [f"f{i}.{call}" for call in (
                "create()", "add({a}, {v})", "retract({a}, {v})", "result({a})"
            )]
        create, insert, retract, result = (
            t.format(a=f"a{i}", v=f"v{i}") for t in templates
        )
        if distinct:
            insert, retract = (
                wrap.format(v=f"v{i}", d=f"state.distinct_counts[{i}]")
                + indented(body, 2)
                for wrap, body in zip(_DISTINCT, (insert, retract))
            )
        if f"v{i}" in insert + retract:
            reads.append(i)
        for name, text in zip(parts, (create, insert, retract, f"({result})")):
            parts[name].append(text)
    # The two loop headers: the vector entry zips the vectors its caller
    # filled; the row entry reads each Change's key and arguments, and
    # counts and skips a late row before its group is touched.  The
    # cutoff is read once per call: watermark events break batches.
    if rows is None:
        params = "op, keys, kinds, ptimes, arg_cols"
        prologue += [f"    c{i} = arg_cols[{i}]" for i in reads]
        header = "for key, kind, ptime{} in zip(keys, kinds, ptimes{}):".format(
            "".join(f", v{i}" for i in reads), "".join(f", c{i}" for i in reads)
        )
    else:
        params, (group, args, times) = "op, changes", rows
        key = _row_tuple_expr([f"values[{g}]" for g in group])
        head = ["for change in changes:", "    values = change.values", f"    key = {key}"]
        if times:
            prologue.append("    cutoff = op.input_watermark - op._allowed_lateness")
            late = " and ".join(f"key[{p}] <= cutoff" for p in times)
            head += [f"    if {late}:", "        op.late_dropped += 1", "        continue"]
        head += ["    kind = change.kind", "    ptime = change.ptime"]
        head += [f"    v{i} = values[{args[i]}]" for i in reads]
        header = "\n".join(head)
    em.lines.append(_FOLD.format(
        prologue="\n".join(prologue),
        header=indented(header, 2),
        creates=", ".join(parts["creates"]),
        counts=", ".join("{}" if spec[-1] else "None" for spec in shape),
        unpack="".join(f"a{i}, " for i in range(len(shape))) or "_",
        inserts="\n".join(indented(t, 4) for t in parts["inserts"]),
        retracts="\n".join(indented(t, 4) for t in parts["retracts"]),
        # (a global aggregate keeps its row: ``if False`` compiles away)
        emptied="False" if is_global else "state.row_count == 0",
        select="select" if selects else "",
        results=_row_tuple_expr(parts["results"]),
    ))
    return _compile_source(em, "_fold", params)
