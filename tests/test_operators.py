"""Unit tests for physical operators, driven directly (no SQL)."""

import pytest

from repro.core.changelog import Change, ChangeKind
from repro.core.errors import ExecutionError
from repro.core.schema import Column, Schema, SqlType, int_col, timestamp_col
from repro.core.times import MIN_TIMESTAMP, align_to_window, minutes, t
from repro.plan.logical import AggCall
from repro.plan.rex import RexCall, RexInput, RexLiteral
from repro.exec.operators import (
    AggregateOperator,
    HopOperator,
    JoinOperator,
    SessionOperator,
    TimeBound,
    UnionOperator,
    hop_windows,
)
from repro.exec.operators.pipeline import PipelineOperator
from repro.sql.functions import default_registry

REG = default_registry()


def ins(values, ptime=0):
    return Change(ChangeKind.INSERT, tuple(values), ptime)


def rm(values, ptime=0):
    return Change(ChangeKind.RETRACT, tuple(values), ptime)


TS_INT = Schema([timestamp_col("ts", event_time=True), int_col("v")])

V = RexInput(1, type=SqlType.INT)


def step(kind, payload, schema=TS_INT):
    """One filter, project or tumble step, run as a flow runs it: a
    fused pipeline over a ``ts, v`` input."""
    return PipelineOperator(schema, 2, ((kind, payload),))


class TestStateless:
    def test_filter_keeps_kind(self):
        op = step("filter", RexCall(">", (V, RexLiteral(5, type=SqlType.INT)),
                                    type=SqlType.BOOL))
        assert op.on_change(0, ins((1, 10))) == [ins((1, 10))]
        assert op.on_change(0, rm((1, 10))) == [rm((1, 10))]
        assert op.on_change(0, ins((1, 3))) == []

    def test_filter_null_is_false(self):
        op = step("filter", RexCall(
            ">", (V, RexLiteral(None, type=SqlType.INT)), type=SqlType.BOOL
        ))
        assert op.on_change(0, ins((1, 10))) == []

    def test_project(self):
        schema = Schema([int_col("double")])
        double = RexCall("*", (V, RexLiteral(2, type=SqlType.INT)),
                         type=SqlType.INT)
        op = step("project", (double,), schema)
        (out,) = op.on_change(0, ins((1, 21)))
        assert out.values == (42,)
        assert out.is_insert

    def test_union_forwards_all_ports(self):
        op = UnionOperator(TS_INT, arity=2)
        assert op.on_change(0, ins((1, 1))) == [ins((1, 1))]
        assert op.on_change(1, ins((2, 2))) == [ins((2, 2))]


TUMBLED = Schema([timestamp_col("wstart"), timestamp_col("wend")]).concat(TS_INT)


class TestWindows:
    def test_tumble_assigns_window(self):
        op = step("tumble", (0, minutes(10), 0), TUMBLED)
        (out,) = op.on_change(0, ins((t("8:07"), 5)))
        assert out.values == (t("8:00"), t("8:10"), t("8:07"), 5)
        assert out.values[0] == align_to_window(t("8:07"), minutes(10))

    def test_tumble_boundary_goes_to_next_window(self):
        op = step("tumble", (0, minutes(10), 0), TUMBLED)
        (out,) = op.on_change(0, ins((t("8:10"), 1)))
        assert out.values[0] == t("8:10")

    def test_tumble_null_timestamp_rejected(self):
        op = step("tumble", (0, minutes(10), 0), TUMBLED)
        with pytest.raises(ExecutionError):
            op.on_change(0, ins((None, 1)))

    def test_hop_windows_function(self):
        # 10-minute windows sliding by 5: a point sits in two windows
        wins = hop_windows(t("8:07"), minutes(10), minutes(5))
        assert wins == [(t("8:00"), t("8:10")), (t("8:05"), t("8:15"))]

    def test_hop_windows_gap_can_miss(self):
        # slide > size leaves gaps
        wins = hop_windows(t("8:04"), minutes(2), minutes(5))
        assert wins == []

    def test_hop_operator_multiplies_rows(self):
        op = HopOperator(TS_INT, timecol=0, size=minutes(10), slide=minutes(5))
        out = op.on_change(0, ins((t("8:07"), 5)))
        assert len(out) == 2
        assert {o.values[0] for o in out} == {t("8:00"), t("8:05")}


def _max_agg():
    fn = REG.aggregate("MAX")
    return AggCall(fn, arg_index=1, output=Column("m", SqlType.INT))


def _count_agg(arg_index=None):
    fn = REG.aggregate("COUNT", star=arg_index is None)
    return AggCall(fn, arg_index=arg_index, output=Column("c", SqlType.INT))


class TestAggregate:
    def _op(self, aggs=None, group=(0,), et=(0,)):
        out_cols = [TS_INT.columns[i] for i in group]
        aggs = aggs if aggs is not None else [_max_agg()]
        schema = Schema(list(out_cols) + [a.output for a in aggs])
        return AggregateOperator(schema, group, aggs, et, input_bounded=False)

    def test_incremental_max_with_retraction_output(self):
        op = self._op()
        assert [c.values for c in op.on_change(0, ins((10, 5)))] == [(10, 5)]
        out = op.on_change(0, ins((10, 9)))
        assert [(c.kind, c.values) for c in out] == [
            (ChangeKind.RETRACT, (10, 5)),
            (ChangeKind.INSERT, (10, 9)),
        ]

    def test_no_emission_when_result_unchanged(self):
        op = self._op()
        op.on_change(0, ins((10, 9)))
        assert op.on_change(0, ins((10, 5))) == []  # lower bid, same MAX

    def test_retraction_input_reveals_runner_up(self):
        op = self._op()
        op.on_change(0, ins((10, 5)))
        op.on_change(0, ins((10, 9)))
        out = op.on_change(0, rm((10, 9)))
        assert out[-1].values == (10, 5)

    def test_group_vanishes_on_last_retraction(self):
        op = self._op()
        op.on_change(0, ins((10, 5)))
        out = op.on_change(0, rm((10, 5)))
        assert [(c.kind, c.values) for c in out] == [(ChangeKind.RETRACT, (10, 5))]
        assert op.group_count == 0

    def test_retraction_for_empty_group_rejected(self):
        op = self._op()
        with pytest.raises(ExecutionError):
            op.on_change(0, rm((10, 5)))

    def test_late_input_dropped_after_watermark(self):
        op = self._op()
        op.on_change(0, ins((10, 5)))
        op.on_watermark(0, 10, ptime=100)  # group key 10 <= wm 10: complete
        assert op.on_change(0, ins((10, 99))) == []
        assert op.late_dropped == 1

    def test_state_freed_on_watermark(self):
        op = self._op()
        op.on_change(0, ins((10, 5)))
        op.on_change(0, ins((20, 7)))
        assert op.state_size() == 2
        op.on_watermark(0, 10, ptime=100)
        assert op.state_size() == 1  # group 10 freed, group 20 retained

    def test_global_aggregate_initial_row(self):
        schema = Schema([Column("c", SqlType.INT)])
        op = AggregateOperator(
            schema, (), [_count_agg()], (), input_bounded=True
        )
        (initial,) = op.on_open()
        assert initial.values == (0,)
        out = op.on_change(0, ins((1, 1)))
        assert [c.values for c in out] == [(0,), (1,)]
        assert out[0].is_retract

    def test_count_distinct(self):
        fn = REG.aggregate("COUNT")
        agg = AggCall(fn, arg_index=1, output=Column("c", SqlType.INT), distinct=True)
        op = self._op(aggs=[agg])
        op.on_change(0, ins((10, 7)))
        assert op.on_change(0, ins((10, 7))) == []  # duplicate value
        out = op.on_change(0, ins((10, 8)))
        assert out[-1].values == (10, 2)
        # retracting one of the two 7s keeps the distinct count
        assert op.on_change(0, rm((10, 7))) == []
        out = op.on_change(0, rm((10, 7)))
        assert out[-1].values == (10, 1)

    def test_sum_and_avg_null_handling(self):
        reg = REG
        sum_call = AggCall(reg.aggregate("SUM"), 1, Column("s", SqlType.INT))
        avg_call = AggCall(reg.aggregate("AVG"), 1, Column("a", SqlType.FLOAT))
        schema = Schema([TS_INT.columns[0], sum_call.output, avg_call.output])
        op = AggregateOperator(schema, (0,), [sum_call, avg_call], (0,), False)
        op.on_change(0, ins((10, None)))
        # all-null group: SUM and AVG are NULL
        out = op.on_change(0, ins((10, 4)))
        assert out[-1].values == (10, 4, 4.0)


class TestJoin:
    def _op(self, condition=None, **kwargs):
        schema = TS_INT.concat(TS_INT)
        return JoinOperator(schema, left_width=2, condition=condition, **kwargs)

    def test_insert_probe(self):
        op = self._op()
        assert op.on_change(0, ins((1, 10))) == []
        (out,) = op.on_change(1, ins((2, 20)))
        assert out.values == (1, 10, 2, 20)

    def test_retract_probe(self):
        op = self._op()
        op.on_change(0, ins((1, 10)))
        op.on_change(1, ins((2, 20)))
        (out,) = op.on_change(0, rm((1, 10)))
        assert out.is_retract
        assert out.values == (1, 10, 2, 20)

    def test_condition_filters(self):
        op = self._op(condition=lambda row: row[1] == row[3])
        op.on_change(0, ins((1, 10)))
        assert op.on_change(1, ins((2, 20))) == []
        (out,) = op.on_change(1, ins((2, 10)))
        assert out.values == (1, 10, 2, 10)

    def test_hash_keys(self):
        op = self._op(left_key=(1,), right_key=(1,))
        op.on_change(0, ins((1, 10)))
        op.on_change(0, ins((1, 20)))
        (out,) = op.on_change(1, ins((9, 10)))
        assert out.values == (1, 10, 9, 10)

    def test_multiplicity(self):
        op = self._op()
        op.on_change(0, ins((1, 10)))
        op.on_change(0, ins((1, 10)))
        out = op.on_change(1, ins((2, 20)))
        assert len(out) == 2

    def test_watermark_expires_state(self):
        op = self._op(left_bound=TimeBound(time_index=0, slack=minutes(10)))
        op.on_change(0, ins((t("8:05"), 1)))
        op.on_change(0, ins((t("8:30"), 2)))
        assert op.state_size() == 2
        op.on_watermark(0, t("8:20"), ptime=0)
        op.on_watermark(1, t("8:20"), ptime=0)
        assert op.state_size() == 1
        assert op.expired_rows == 1

    def test_retract_of_expired_row_is_noop(self):
        op = self._op(left_bound=TimeBound(time_index=0, slack=0))
        op.on_change(0, ins((t("8:00"), 1)))
        op.on_watermark(0, t("9:00"), ptime=0)
        op.on_watermark(1, t("9:00"), ptime=0)
        assert op.on_change(0, rm((t("8:00"), 1))) == []


class TestSession:
    def _op(self, gap=minutes(5)):
        schema = Schema(
            [timestamp_col("wstart"), timestamp_col("wend")]
        ).concat(TS_INT)
        return SessionOperator(schema, timecol=0, gap=gap)

    def test_single_row_session(self):
        op = self._op()
        (out,) = op.on_change(0, ins((t("8:00"), 1)))
        assert out.values == (t("8:00"), t("8:05"), t("8:00"), 1)

    def test_extension_retracts_and_reemits(self):
        op = self._op()
        op.on_change(0, ins((t("8:00"), 1)))
        out = op.on_change(0, ins((t("8:03"), 2)))
        # old tag for row 1 retracted; both rows re-tagged [8:00, 8:08)
        retracted = [c for c in out if c.is_retract]
        inserted = [c for c in out if c.is_insert]
        assert len(retracted) == 1
        assert {c.values[1] for c in inserted} == {t("8:08")}

    def test_merge_two_sessions(self):
        op = self._op()
        op.on_change(0, ins((t("8:00"), 1)))
        op.on_change(0, ins((t("8:08"), 2)))  # separate session [8:08, 8:13)
        out = op.on_change(0, ins((t("8:04"), 3)))  # within gap of both
        inserted = [c for c in out if c.is_insert]
        assert {c.values[0] for c in inserted} == {t("8:00")}
        assert {c.values[1] for c in inserted} == {t("8:13")}
        assert len(inserted) == 3

    def test_retraction_splits_session(self):
        op = self._op(gap=minutes(3))
        op.on_change(0, ins((t("8:00"), 1)))
        op.on_change(0, ins((t("8:02"), 2)))  # bridges 8:00 and 8:04
        op.on_change(0, ins((t("8:04"), 3)))
        out = op.on_change(0, rm((t("8:02"), 2)))
        inserted = [c for c in out if c.is_insert]
        starts = sorted(c.values[0] for c in inserted)
        assert starts == [t("8:00"), t("8:04")]

    def test_watermark_frees_closed_sessions(self):
        op = self._op()
        op.on_change(0, ins((t("8:00"), 1)))
        op.on_change(0, ins((t("9:00"), 2)))
        assert op.state_size() == 2
        op.on_watermark(0, t("8:30"), ptime=0)
        assert op.state_size() == 1

    def test_late_row_dropped(self):
        op = self._op()
        op.on_watermark(0, t("8:30"), ptime=0)
        assert op.on_change(0, ins((t("8:00"), 1))) == []
        assert op.late_dropped == 1
