"""The generated aggregate fold, refereed from outside the engine.

Every aggregate operator's group transition is a fold generated per
shape from the functions' source templates
(:func:`repro.exec.codegen.fold_kernel`).  Here its changelogs are
folded at every instant and compared with the naive evaluator of
``tests/oracle.py`` on generated inputs with NULLs, retractions and
late rows: COUNT(*) and COUNT(x), SUM and AVG (all-NULL groups
included), MIN and MAX (their extreme retracted), VAR_POP (a function
without templates, which the fold calls), DISTINCT, a global aggregate
(over empty input too), a selection of the grouped row's columns the
fusion pass absorbed, and the two-phase combine stage.  The row entry
applies the lateness cutoff itself, inline, so the grouped cells draw
``allowed_lateness`` (0 or a minute) and keys with one event-time
position (``wend``, beside ``k`` or ``wstart``) or two (``ts, wend``).
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig
from repro.core.tvr import ins, rm, wm
from repro.exec.codegen import fold_kernel
from repro.exec.operators.aggregate import AggregateOperator

from .oracle import AGGREGATES, KERNEL_AGGREGATES, Query, evaluate
from .test_oracle import (
    MINUTE,
    assert_folds_to_the_naive_snapshot,
    folded,
    prepared,
    streams,
    where_clauses,
)

#: group keys: ``wstart`` is not an event-time column, ``ts`` is
KEYS = [("wend",), ("k", "wend"), ("wstart", "wend"), ("ts", "wend")]
#: what a two-phase split accepts (VAR_POP is not decomposable)
DECOMPOSABLE = AGGREGATES + ("COUNT(DISTINCT v)", "SUM(DISTINCT v)", "MAX(DISTINCT v)")


@st.composite
def aggregates(draw, drawn=KERNEL_AGGREGATES, grouped=True) -> Query:
    """A windowed (or, ``grouped=False``, global) aggregate over ``S``,
    perhaps outputting only some columns of its grouped row in another
    order — a selection the fusion pass absorbs into the aggregate."""
    aggs = tuple(draw(st.lists(st.sampled_from(drawn), min_size=1, max_size=3)))
    keys = draw(st.sampled_from(KEYS)) if grouped else ()
    width = len(keys) + len(aggs)
    pick = draw(st.none() | st.permutations(range(width)).flatmap(
        lambda order: st.integers(1, width).map(lambda n: tuple(order[:n]))
    ))
    return Query(
        where=draw(where_clauses(["k", "v"])),
        window=draw(st.sampled_from([MINUTE, 2 * MINUTE])) if grouped else None,
        keys=keys or ("wend",),
        aggs=aggs,
        pick=pick,
        allowed_lateness=draw(st.sampled_from([0, MINUTE])) if grouped else 0,
    )


def config(query: Query, **knobs) -> ExecutionConfig:
    return ExecutionConfig(allowed_lateness=query.allowed_lateness, **knobs)


def fold_sources(flow) -> list[str]:
    return [
        op._fold._codegen_source
        for op in flow.operators
        if isinstance(op, AggregateOperator)
    ]


@pytest.mark.parametrize("batch_size", [1, 64])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grouped_fold_folds_to_the_naive_snapshot(batch_size, data):
    query = data.draw(aggregates(), label="query")
    sources = data.draw(streams(data.draw(st.booleans())), label="sources")
    flow = prepared(sources, config(query, batch_size=batch_size), query).dataflow()
    assert_folds_to_the_naive_snapshot(flow.run().changes, query, sources)


@pytest.mark.parametrize("batch_size", [1, 64])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_global_fold_folds_to_the_naive_snapshot(batch_size, data):
    query = data.draw(aggregates(grouped=False), label="query")
    sources = data.draw(streams(data.draw(st.booleans())), label="sources")
    changes = prepared(sources, ExecutionConfig(batch_size=batch_size), query).run().changes
    assert_folds_to_the_naive_snapshot(changes, query, sources)


@pytest.mark.parametrize("batch_size", [1, 64])
def test_global_fold_over_empty_input_has_its_one_row(batch_size):
    query = Query(aggs=KERNEL_AGGREGATES, pick=tuple(reversed(range(10))))
    sources = {"S": [], "R": []}
    changes = prepared(sources, ExecutionConfig(batch_size=batch_size), query).run().changes
    assert folded(changes, query.width(), 0) == evaluate(query, sources, 0)
    assert [change.values for change in changes] == [
        (None, None, 0, None, None, None, None, None, 0, 0)
    ]


@pytest.mark.parametrize("batch_size", [1, 64])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_two_phase_combine_folds_to_the_naive_snapshot(batch_size, data):
    """The combine stage's fold — replay payloads, keys pre-extracted,
    a DISTINCT duplicate a shard absorbed marked ``SUPPRESSED``."""
    query = data.draw(aggregates(drawn=DECOMPOSABLE), label="query")
    sources = data.draw(streams(data.draw(st.booleans())), label="sources")
    sharded = config(
        query, parallelism=2, backend="sync", two_phase="on", batch_size=batch_size
    )
    flow = prepared(sources, sharded, query).sharded_dataflow()
    assert flow.combines
    assert_folds_to_the_naive_snapshot(flow.run().changes, query, sources)


def _rows(*values, ptime=1_000_000, key=1):
    return [ins(ptime + n * 1_000, (key, 0, v)) for n, v in enumerate(values)]


@pytest.mark.parametrize("batch_size", [1, 64])
def test_extremes_retracted_and_all_null_groups(batch_size):
    """MIN and MAX lose their extreme and fall back to the runner-up;
    a group of NULLs only has a count and NULL everywhere else."""
    events = _rows(5, 9, 7) + [
        rm(1_010_000, (1, 0, 9)), rm(1_011_000, (1, 0, 5)),
    ] + _rows(None, None, ptime=1_020_000, key=2) + [wm(1_030_000, 0)]
    sources = {"S": events, "R": []}
    query = Query(window=MINUTE, keys=("k", "wend"), aggs=KERNEL_AGGREGATES)
    changes = prepared(sources, ExecutionConfig(batch_size=batch_size), query).run().changes
    assert_folds_to_the_naive_snapshot(changes, query, sources)
    final = folded(changes, query.width(), 2_000_000)
    assert sorted(final.tuples, key=lambda row: row[0]) == [
        (1, MINUTE, 1, 1, 7, 7.0, 7, 7, 0.0, 1, 7, 7),
        (2, MINUTE, 2, 0, None, None, None, None, None, 0, None, None),
    ]


def test_kernels_are_generated_per_shape_and_hold_no_operator():
    """Two operators of one shape share one compiled fold; it reaches
    its operator through its argument only (no reference cycle); a
    function without templates is called, a DISTINCT one guarded, and
    an absorbed selection is applied by the fold."""
    query = Query(
        window=MINUTE, keys=("k", "wend"),
        aggs=("VAR_POP(v)", "COUNT(DISTINCT v)", "MAX(v)"), pick=(4, 2, 3, 1),
    )
    sources = {"S": _rows(1, 2, 2), "R": []}
    flows = [
        prepared(sources, ExecutionConfig(batch_size=64), query).dataflow()
        for _ in range(2)
    ]
    (first,), (second,) = (
        [op for op in flow.operators if isinstance(op, AggregateOperator)]
        for flow in flows
    )
    assert first._fold is second._fold
    assert first._fold_rows is second._fold_rows
    assert first._select is not None  # the Project was absorbed
    assert first._fold is fold_kernel(first._aggs, first._global, True)
    for entry in (first._fold, first._fold_rows):
        assert entry.__closure__ is None
        assert not any(
            isinstance(value, AggregateOperator) for value in entry.__defaults__
        )
    (source,) = fold_sources(flows[0])
    assert re.search(r"(f\d)\.add\(a\d, v\d\)", source)
    assert re.search(r"f\d\.result\(a\d\)", source)
    assert "_SUPPRESSED" in source and "select(row)" in source
    assert re.search(r"insort\(a\d\._items, v\d\)", source)
    assert_folds_to_the_naive_snapshot(flows[0].run().changes, query, sources)


@pytest.mark.parametrize("batch_size", [1, 64])
@pytest.mark.parametrize("lateness", [0, MINUTE])
@pytest.mark.parametrize("keys", KEYS)
def test_the_row_entry_cuts_late_rows_at_the_boundary(keys, lateness, batch_size):
    """A row whose window ends exactly at the watermark less the allowed
    lateness is late (``<=``), one a millisecond later is not; every
    event-time key must be covered (``and``).  Per row at ``batch_size``
    1, through the row entry, whose source spells the cutoff; the same
    drops, columnar, at 64."""
    mark = 3 * MINUTE
    boundary = mark - lateness  # a window ending here is complete
    events = [
        ins(1_000_000, (1, boundary - 1, 1)),
        wm(1_001_000, mark),
        ins(1_002_000, (1, boundary - 1, 2)),  # wend == boundary: late
        ins(1_003_000, (1, boundary, 3)),  # the next window: on time
        rm(1_004_000, (1, boundary - 1, 1)),  # late too: its group is complete
    ]
    sources = {"S": events, "R": []}
    query = Query(
        window=MINUTE, keys=keys, aggs=("COUNT(*)", "SUM(v)"),
        allowed_lateness=lateness,
    )
    flow = prepared(sources, config(query, batch_size=batch_size), query).dataflow()
    (op,) = [op for op in flow.operators if isinstance(op, AggregateOperator)]
    result = flow.run()
    assert_folds_to_the_naive_snapshot(result.changes, query, sources)
    assert op.late_dropped == 2
    assert len(op._et_positions) == (2 if "ts" in keys else 1)
    if batch_size == 1:
        cut = " and ".join(f"key[{p}] <= cutoff" for p in op._et_positions)
        assert f"if {cut}:" in op._fold_rows._codegen_source
