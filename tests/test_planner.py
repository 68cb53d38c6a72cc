"""Tests for the planner: plan shapes, typing, and the paper's rules."""

import pytest

from repro.core.errors import ValidationError
from repro.core.schema import Schema, SqlType, int_col, string_col, timestamp_col
from repro.core.times import minutes
from repro.plan.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    ProjectNode,
    ScanNode,
    SortNode,
    UnionNode,
    WindowKind,
    WindowNode,
)
from repro.plan.planner import Catalog, Planner
from repro.sql.functions import default_registry

BID = Schema(
    [
        timestamp_col("bidtime", event_time=True),
        int_col("price"),
        string_col("item"),
    ]
)
PLAIN = Schema([int_col("a"), int_col("b"), string_col("s")])


def code_of(planner, sql):
    """The code of the :class:`ValidationError` planning ``sql`` raises."""
    with pytest.raises(ValidationError) as raised:
        planner.plan_sql(sql)
    return raised.value.code


@pytest.fixture
def planner():
    catalog = Catalog()
    catalog.register("Bid", BID, bounded=False)
    catalog.register("BidTable", BID, bounded=True)
    catalog.register("T", PLAIN, bounded=True)
    catalog.register("U", PLAIN, bounded=True)
    return Planner(catalog, default_registry())


class TestScansAndProjection:
    def test_select_star(self, planner):
        plan = planner.plan_sql("SELECT * FROM Bid")
        assert isinstance(plan.root, ProjectNode)
        assert plan.root.schema.column_names() == ["bidtime", "price", "item"]
        # verbatim forwarding preserves the event time flag
        assert plan.root.schema.columns[0].event_time

    def test_unknown_table(self, planner):
        assert code_of(planner, "SELECT * FROM Nope") == "unknown_table"

    def test_unknown_column(self, planner):
        assert code_of(planner, "SELECT nope FROM Bid") == "unknown_column"

    def test_computed_column_degrades_alignment(self, planner):
        plan = planner.plan_sql(
            "SELECT bidtime + INTERVAL '1' MINUTE AS shifted FROM Bid"
        )
        assert plan.root.schema.columns[0].type is SqlType.TIMESTAMP
        assert not plan.root.schema.columns[0].event_time

    def test_alias_resolution(self, planner):
        plan = planner.plan_sql("SELECT B.price FROM Bid B")
        assert plan.root.schema.column_names() == ["price"]

    def test_unknown_alias(self, planner):
        assert code_of(planner, "SELECT X.price FROM Bid B") == "unknown_column"

    def test_ambiguous_column(self, planner):
        with pytest.raises(ValidationError, match="ambiguous") as raised:
            planner.plan_sql("SELECT a FROM T, U")
        assert raised.value.code == "unknown_column"

    def test_duplicate_alias_rejected(self, planner):
        with pytest.raises(ValidationError, match="duplicate table alias"):
            planner.plan_sql("SELECT 1 FROM T x, U x")

    def test_expression_typing_errors(self, planner):
        for sql in [
            "SELECT 1 FROM Bid WHERE price = item",
            "SELECT item + 1 FROM Bid",
            "SELECT 1 FROM Bid WHERE price AND price > 1",
        ]:
            assert code_of(planner, sql) == "type_mismatch"
        with pytest.raises(ValidationError, match="WHERE must be BOOLEAN"):
            planner.plan_sql("SELECT 1 FROM Bid WHERE price + 1")


class TestWindowTvfs:
    def test_tumble_schema(self, planner):
        plan = planner.plan_sql(
            "SELECT * FROM Tumble(data => TABLE(Bid), "
            "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE)"
        )
        names = plan.root.schema.column_names()
        assert names == ["wstart", "wend", "bidtime", "price", "item"]
        # wend stays watermark-aligned; wstart is conservatively degraded
        # (a future row's wstart can fall behind the watermark)
        assert not plan.root.schema.columns[0].event_time
        assert plan.root.schema.columns[1].event_time

    def test_hop_requires_slide(self, planner):
        with pytest.raises(ValidationError, match="slide"):
            planner.plan_sql(
                "SELECT * FROM Hop(data => TABLE(Bid), "
                "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE)"
            )

    def test_timecol_must_be_event_time(self, planner):
        with pytest.raises(ValidationError, match="event time"):
            planner.plan_sql(
                "SELECT * FROM Tumble(data => TABLE(T), "
                "timecol => DESCRIPTOR(a), dur => INTERVAL '1' MINUTE)"
            )

    def test_unknown_tvf(self, planner):
        with pytest.raises(ValidationError, match="unknown table-valued"):
            planner.plan_sql("SELECT * FROM Wiggle(data => TABLE(Bid))")

    def test_unknown_tvf_parameter(self, planner):
        with pytest.raises(ValidationError, match="no parameter"):
            planner.plan_sql(
                "SELECT * FROM Tumble(data => TABLE(Bid), "
                "timecol => DESCRIPTOR(bidtime), wibble => INTERVAL '1' MINUTE)"
            )

    def test_window_node_kind(self, planner):
        plan = planner.plan_sql(
            "SELECT * FROM Session(data => TABLE(Bid), "
            "timecol => DESCRIPTOR(bidtime), gap => INTERVAL '1' MINUTE)"
        )
        window = plan.root.input
        assert isinstance(window, WindowNode)
        assert window.kind is WindowKind.SESSION


class TestAggregation:
    def test_extension2_rejects_unbounded_non_event_grouping(self, planner):
        with pytest.raises(ValidationError, match="Extension 2"):
            planner.plan_sql("SELECT item, COUNT(*) FROM Bid GROUP BY item")

    def test_bounded_non_event_grouping_allowed(self, planner):
        plan = planner.plan_sql(
            "SELECT item, COUNT(*) FROM BidTable GROUP BY item"
        )
        assert isinstance(plan.root, ProjectNode)

    def test_unbounded_event_time_grouping_allowed(self, planner):
        plan = planner.plan_sql(
            "SELECT TB.wend, MAX(TB.price) FROM Tumble(data => TABLE(Bid), "
            "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) TB "
            "GROUP BY TB.wend"
        )
        agg = plan.root.input
        assert isinstance(agg, AggregateNode)

    def test_window_sibling_key_injected(self, planner):
        """Grouping by wend lets you select wstart (Listing 2's idiom)."""
        plan = planner.plan_sql(
            "SELECT TB.wstart, TB.wend, MAX(TB.price) FROM Tumble("
            "data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
            "dur => INTERVAL '10' MINUTE) TB GROUP BY TB.wend"
        )
        agg = plan.root.input
        assert isinstance(agg, AggregateNode)
        assert len(agg.group_indices) == 2

    def test_non_grouped_column_rejected(self, planner):
        with pytest.raises(ValidationError, match="GROUP BY"):
            planner.plan_sql(
                "SELECT item, MAX(price) FROM BidTable GROUP BY price"
            )

    def test_aggregates_cannot_nest(self, planner):
        with pytest.raises(ValidationError, match="nest"):
            planner.plan_sql("SELECT MAX(COUNT(*)) FROM BidTable")

    def test_expression_over_aggregate(self, planner):
        plan = planner.plan_sql(
            "SELECT MAX(price) - MIN(price) AS spread FROM BidTable"
        )
        assert plan.root.schema.column_names() == ["spread"]

    def test_expression_over_group_key(self, planner):
        plan = planner.plan_sql(
            "SELECT price * 2 AS doubled FROM BidTable GROUP BY price"
        )
        assert plan.root.schema.column_names() == ["doubled"]

    def test_having(self, planner):
        plan = planner.plan_sql(
            "SELECT item FROM BidTable GROUP BY item HAVING COUNT(*) > 2"
        )
        assert isinstance(plan.root, ProjectNode)
        assert isinstance(plan.root.input, FilterNode)

    def test_global_aggregate(self, planner):
        plan = planner.plan_sql("SELECT COUNT(*), SUM(price) FROM BidTable")
        agg = plan.root.input
        assert isinstance(agg, AggregateNode)
        assert agg.group_indices == ()

    def test_distinct_select_becomes_grouping(self, planner):
        plan = planner.plan_sql("SELECT DISTINCT item FROM BidTable")
        assert isinstance(plan.root, AggregateNode)

    def test_distinct_on_unbounded_needs_event_time(self, planner):
        with pytest.raises(ValidationError, match="Extension 2"):
            planner.plan_sql("SELECT DISTINCT item FROM Bid")

    def test_sum_requires_numeric(self, planner):
        with pytest.raises(ValidationError, match="numeric"):
            planner.plan_sql("SELECT SUM(item) FROM BidTable")

    def test_completion_and_emit_keys(self, planner):
        plan = planner.plan_sql(
            "SELECT TB.wstart, TB.wend, MAX(TB.price) m FROM Tumble("
            "data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
            "dur => INTERVAL '10' MINUTE) TB GROUP BY TB.wend"
        )
        # wend (output ordinal 1) is the completion bound; both window
        # columns identify the aggregate for EMIT purposes
        assert set(plan.root.completion_indices) == {1}
        assert set(plan.root.emit_key_indices) == {0, 1}


class TestJoins:
    def test_explicit_join(self, planner):
        plan = planner.plan_sql(
            "SELECT T.a FROM T JOIN U ON T.a = U.b"
        )
        join = plan.root.input
        assert isinstance(join, JoinNode)

    def test_full_join_planned(self, planner):
        plan = planner.plan_sql("SELECT 1 FROM T FULL OUTER JOIN U ON T.a = U.a")
        join = plan.root.input
        assert isinstance(join, JoinNode)
        assert join.kind.value == "FULL"
        # no per-row completion bound exists for FULL joins
        assert join.completion_indices is None

    def test_right_join_mirrored(self, planner):
        plan = planner.plan_sql(
            "SELECT T.a, U.b FROM T RIGHT JOIN U ON T.a = U.a"
        )
        # a RIGHT join plans as LEFT with swapped inputs + reordering
        text = plan.root.explain()
        assert "LEFT" in text

    def test_comma_join_is_cross(self, planner):
        plan = planner.plan_sql("SELECT 1 FROM T, U")
        join = plan.root.input
        assert isinstance(join, JoinNode)
        assert join.condition is None


class TestSetOps:
    def test_union_all(self, planner):
        plan = planner.plan_sql("SELECT a FROM T UNION ALL SELECT b FROM U")
        assert isinstance(plan.root, UnionNode)

    def test_union_distinct_dedups(self, planner):
        plan = planner.plan_sql("SELECT a FROM T UNION SELECT b FROM U")
        assert isinstance(plan.root, AggregateNode)

    def test_union_arity_mismatch(self, planner):
        from repro.core.errors import PlanError

        with pytest.raises((ValidationError, PlanError)):
            planner.plan_sql("SELECT a, b FROM T UNION ALL SELECT a FROM U")


class TestOrderLimit:
    def test_order_by_name_and_ordinal(self, planner):
        plan = planner.plan_sql("SELECT a, b FROM T ORDER BY b DESC, 1 LIMIT 3")
        assert isinstance(plan.root, SortNode)
        assert plan.root.keys == ((1, False), (0, True))
        assert plan.root.limit == 3

    def test_order_by_unknown(self, planner):
        with pytest.raises(ValidationError, match="ORDER BY"):
            planner.plan_sql("SELECT a FROM T ORDER BY nope")

    def test_order_by_ordinal_out_of_range(self, planner):
        with pytest.raises(ValidationError, match="out of range"):
            planner.plan_sql("SELECT a FROM T ORDER BY 5")


class TestEmitPlacement:
    def test_emit_in_subquery_rejected(self, planner):
        with pytest.raises(ValidationError, match="top level"):
            planner.plan_sql(
                "SELECT * FROM (SELECT a FROM T EMIT STREAM) sub"
            )

    def test_top_level_emit_kept(self, planner):
        plan = planner.plan_sql("SELECT a FROM T EMIT STREAM")
        assert plan.emit.stream

    def test_scalar_subquery_equality_plans_as_semi_join(self, planner):
        plan = planner.plan_sql(
            "SELECT a FROM T WHERE a = (SELECT MAX(a) FROM T)"
        )
        assert "SemiJoin" in plan.root.explain()

    def test_scalar_subquery_comparison_guidance(self, planner):
        # only equality has a semi-join factorization
        with pytest.raises(ValidationError, match="rewrite as a join"):
            planner.plan_sql(
                "SELECT a FROM T WHERE a > (SELECT MAX(a) FROM T)"
            )


class TestExplain:
    def test_explain_renders_tree(self, planner):
        plan = planner.plan_sql(
            "SELECT price FROM Bid WHERE price > 2 EMIT STREAM"
        )
        text = plan.explain()
        assert "EMIT STREAM" in text
        assert "Scan(Bid stream)" in text
