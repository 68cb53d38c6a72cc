"""Checkpoint format 4: an aggregate's groups are cut as one table.

``AggregateOperator.state_snapshot`` writes its groups as parallel
columns — keys, row counts, emitted results, one column of plain
accumulator states per aggregate, one column of DISTINCT counts per
DISTINCT aggregate — so a cut pickles a few vectors instead of two
objects per group.  Under test:

* **the round trip**: checkpoint → fresh flow → restore → continue
  equals the uninterrupted run (changelog, watermark track, late drops,
  peak state) for every aggregate shape, cut at any boundary of the
  runs ``event_runs`` forms, serial and two-phase (replay and delta
  payloads), at batch sizes 1 and 64;
* **the table itself**: group order survives, nothing of this package
  is pickled, and a build that reads only format 3 refuses the cut.
"""

import pickle
import pickletools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.containers import SortedMultiset
from repro.core.errors import ExecutionError
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, rm, wm
from repro.exec import executor
from repro.exec.operators.aggregate import AggregateOperator

MINUTE = 60_000

SCHEMA = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])

TUMBLE = (
    "Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE) T"
)


def grouped(select: str) -> str:
    return f"SELECT k, wend, {select} FROM {TUMBLE} GROUP BY k, wend"


#: every aggregate shape, and whether its sharded flow splits in two phases
SHAPES = {
    "count_star": (grouped("COUNT(*) AS n"), True),
    "count_nulls": (grouped("COUNT(v) AS n"), True),
    "sum": (grouped("SUM(v) AS s"), True),
    "avg": (grouped("AVG(v) AS a"), True),
    "min_max": (grouped("MIN(v) AS lo, MAX(v) AS hi"), True),
    "var_pop": (grouped("VAR_POP(v) AS x"), False),
    "count_distinct": (grouped("COUNT(DISTINCT v) AS d, SUM(v) AS s"), True),
    "global": ("SELECT COUNT(*) AS n, MAX(v) AS hi, SUM(v) AS s FROM S", None),
}

FLOWS = {
    "serial": {},
    "two_phase_replay": dict(parallelism=2, backend="sync", two_phase="auto"),
    "two_phase_delta": dict(
        parallelism=2, backend="sync", two_phase="auto", coalesce_updates=True
    ),
}

CASES = [
    (shape, flow)
    for shape, (_, splits) in SHAPES.items()
    for flow in FLOWS
    # a global aggregate keeps one group: it is not key-partitionable
    if flow == "serial" or splits is not None
]


def decoded_groups(groups) -> dict:
    """``{key: (row_count, emitted, accumulator states, DISTINCT
    counts)}`` of an aggregate's snapshotted ``groups``, in group order:
    the format-4 table, or the dict of group objects the parent's golden
    blobs hold (``tests/test_metrics.py``; ``retained`` is not read).  Multisets are their item
    lists; DISTINCT counts are listed for DISTINCT aggregates only."""
    if isinstance(groups, dict):
        return {
            key: (
                state.row_count,
                state.emitted,
                [
                    list(acc) if type(acc) is SortedMultiset else acc
                    for acc in state.accumulators
                ],
                [counts for counts in state.distinct_counts if counts is not None],
            )
            for key, state in groups.items()
        }
    keys, row_counts, results, accumulators, distinct = groups
    return {
        key: (
            row_counts[g],
            None if results[g] is None else key + results[g],
            [column[g] for column in accumulators],
            [column[g] for column in distinct],
        )
        for g, key in enumerate(keys)
    }


# ---------------------------------------------------------------------------
# histories
# ---------------------------------------------------------------------------

steps = st.lists(
    st.tuples(
        st.sampled_from(["ins", "ins", "ins", "ins", "rm", "wm", "late", "tick"]),
        st.integers(0, 1),  # key
        st.integers(0, 5),  # event time, in half minutes past the watermark
        # values repeat within a group (DISTINCT), and may be NULL
        st.one_of(st.none(), st.integers(-1, 2)),
    ),
    min_size=12,
    max_size=60,
)


def history(drawn) -> list:
    """Bursts of same-instant rows (a ``tick`` ends one), retractions of
    live rows, watermarks, and rows later than the watermark."""
    events, live = [], []
    ptime, watermark = 1_000_000, 0
    for kind, key, offset, value in drawn:
        if kind == "tick":
            ptime += 5_000
        elif kind == "wm":
            watermark += offset * MINUTE // 2
            events.append(wm(ptime, watermark))
        elif kind == "rm" and live:
            events.append(rm(ptime, live.pop(key % len(live))))
        else:
            late = kind == "late"
            ts = max(0, watermark + (offset - 6 if late else offset) * MINUTE // 2)
            row = (key, ts, value)
            live.append(row)
            events.append(ins(ptime, row))
    return events


def build(shape: str, flow: str, batch_size: int):
    engine = StreamEngine(
        config=ExecutionConfig(batch_size=batch_size, **FLOWS[flow])
    )
    engine.register_stream("S", TimeVaryingRelation(SCHEMA))
    query = engine.query(SHAPES[shape][0])
    return (lambda: query.sharded_dataflow()) if FLOWS[flow] else query.dataflow


def fed(flow, events):
    for _ in flow.replay([(event, "S") for event in events]):
        pass
    return flow


def outcome(result) -> tuple:
    return (
        result.changes,
        result.watermarks.as_pairs(),
        result.late_dropped,
        result.peak_state_rows,
    )


def run_boundary(flow, events, cut: int) -> int:
    """The first index at or after ``cut`` at a boundary of the runs
    ``event_runs`` forms for ``flow``.  A cut inside a run re-forms that
    run's batch: a coalescing flow compacts per batch, and peak state is
    sampled once per delivery, so flows are cut between runs."""
    runs = executor.event_runs(flow, [(event, "S") for event in events])
    return min(
        stop for stop in [0, *(stop for stop, _, _ in runs)] if stop >= cut
    )


class TestRoundTrip:
    @pytest.mark.parametrize("batch_size", [1, 64])
    @pytest.mark.parametrize("shape,flow", CASES)
    @settings(max_examples=20, deadline=None)
    @given(drawn=steps, data=st.data())
    def test_restore_and_continue_equals_the_uninterrupted_run(
        self, shape, flow, batch_size, drawn, data
    ):
        events = history(drawn)
        cut = data.draw(st.integers(0, len(events)), label="cut")
        make = build(shape, flow, batch_size)
        cut = run_boundary(make(), events, cut)
        whole = make()
        if FLOWS[flow]:
            assert whole.is_two_phase() is SHAPES[shape][1]
        try:
            expected = outcome(fed(whole, events).finish())
        except ExecutionError:
            # a retraction the watermark had dropped the insert of: the
            # run itself is refused, cut or no cut
            return
        restored = make()
        restored.restore(fed(make(), events[:cut]).checkpoint())
        assert outcome(fed(restored, events[cut:]).finish()) == expected


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


def opcodes(blob: bytes) -> list:
    return [(op.name, arg) for op, arg, _ in pickletools.genops(blob)]


FIXED = [1, 3, 1, 5, 8]  # keys of a fixed history that leaves groups open


def fixed_history() -> list:
    events, ptime = [], 1_000_000
    for i, key in enumerate(FIXED * 6):
        ptime += 1_000 * (i % 3 == 0)
        events.append(ins(ptime, (key, (i % 4) * MINUTE, None if i % 5 == 0 else i)))
        if i == 17:
            events.append(rm(ptime, events[4].change.values))
        if i % 11 == 10:
            events.append(wm(ptime, (i // 11) * MINUTE))
    return events


class TestTable:
    def test_no_object_of_the_package_is_pickled(self):
        make = build("min_max", "serial", 64)
        flow = fed(make(), fixed_history())
        (state,) = [
            state for op, state in zip(
                flow.operators, pickle.loads(flow.checkpoint())["op_states"]
            ) if isinstance(op, AggregateOperator)
        ]
        ops = opcodes(pickle.dumps(state, pickle.HIGHEST_PROTOCOL))
        assert not [name for name, _ in ops if name in ("NEWOBJ", "BUILD")]
        assert not [
            arg for _, arg in ops if isinstance(arg, str) and arg.startswith("repro")
        ]

    def test_group_order_survives_the_round_trip(self):
        make = build("sum", "serial", 1)
        flow = fed(make(), fixed_history())
        restored = make()
        restored.restore(flow.checkpoint())
        for op, again in zip(flow.operators, restored.operators):
            if isinstance(op, AggregateOperator):
                assert list(again._groups) == list(op._groups)
                assert len(op._groups) > 1

    def test_a_build_reading_format_3_refuses_it(self, monkeypatch):
        make = build("sum", "serial", 1)
        blob = fed(make(), fixed_history()).checkpoint()
        monkeypatch.setattr(executor, "CHECKPOINT_VERSION", 3)
        with pytest.raises(
            ExecutionError, match="checkpoint format version 4 is not the "
            r"one this build reads \(3\)"
        ):
            make().restore(blob)
