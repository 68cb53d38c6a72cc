"""Unit tests for name resolution and expression typing."""

import pytest

from repro.core.errors import ValidationError
from repro.core.schema import (
    Schema,
    SqlType,
    float_col,
    int_col,
    string_col,
    timestamp_col,
)
from repro.plan import rex
from repro.sql.functions import default_registry
from repro.sql.parser import parse_expression
from repro.sql.validator import ExprTranslator, Scope, ScopeEntry

BID = Schema(
    [
        timestamp_col("bidtime", event_time=True),
        int_col("price"),
        string_col("item"),
        float_col("rate"),
    ]
)
OTHER = Schema([int_col("price"), string_col("tag")])


@pytest.fixture
def scope():
    return Scope(
        [
            ScopeEntry("b", BID, 0),
            ScopeEntry("o", OTHER, len(BID)),
        ]
    )


@pytest.fixture
def translator(scope):
    return ExprTranslator(scope, default_registry())


def translate(translator, text):
    return translator.translate(parse_expression(text))


def code_of(call, *args):
    """The code of the :class:`ValidationError` ``call(*args)`` raises."""
    with pytest.raises(ValidationError) as raised:
        call(*args)
    return raised.value.code


class TestScope:
    def test_qualified_resolution(self, scope):
        ordinal, column = scope.resolve(("o", "price"))
        assert ordinal == 4
        assert column.name == "price"

    def test_unqualified_unique(self, scope):
        ordinal, _ = scope.resolve(("item",))
        assert ordinal == 2

    def test_unqualified_ambiguous(self, scope):
        # (one code for unknown and ambiguous names: the text tells them apart)
        with pytest.raises(ValidationError, match="ambiguous") as raised:
            scope.resolve(("price",))
        assert raised.value.code == "unknown_column"

    def test_unknown_alias_and_column(self, scope):
        for parts in [("zz", "price"), ("b", "zz"), ("zz",)]:
            assert code_of(scope.resolve, parts) == "unknown_column"

    def test_star_expansion(self, scope):
        assert scope.expand_star(None) == list(range(6))
        assert scope.expand_star("o") == [4, 5]
        assert code_of(scope.expand_star, "zz") == "unknown_column"

    def test_column_at(self, scope):
        assert scope.column_at(5).name == "tag"
        with pytest.raises(ValidationError):
            scope.column_at(99)


class TestTyping:
    def test_timestamp_arithmetic(self, translator):
        out = translate(translator, "b.bidtime + INTERVAL '1' MINUTE")
        assert out.type is SqlType.TIMESTAMP
        out = translate(translator, "b.bidtime - b.bidtime")
        assert out.type is SqlType.INTERVAL
        out = translate(translator, "INTERVAL '1' MINUTE + INTERVAL '2' MINUTE")
        assert out.type is SqlType.INTERVAL

    def test_interval_scaling(self, translator):
        out = translate(translator, "INTERVAL '1' MINUTE * 3")
        assert out.type is SqlType.INTERVAL

    def test_numeric_promotion(self, translator):
        assert translate(translator, "b.price + 1").type is SqlType.INT
        assert translate(translator, "b.price + 1.5").type is SqlType.FLOAT
        assert translate(translator, "b.price + b.rate").type is SqlType.FLOAT

    def test_integer_vs_float_division(self, translator):
        assert translate(translator, "b.price / 2").type is SqlType.INT
        assert translate(translator, "b.rate / 2").type is SqlType.FLOAT

    def test_comparison_types(self, translator):
        assert translate(translator, "b.price > 1").type is SqlType.BOOL
        assert code_of(translate, translator, "b.item > 1") == "type_mismatch"

    @pytest.mark.parametrize("text", [
        "b.price AND b.price > 1", "NOT b.price",
        "CASE WHEN b.price THEN 1 END",
    ])
    def test_boolean_operands_checked(self, translator, text):
        assert code_of(translate, translator, text) == "type_mismatch"

    def test_negation_types(self, translator):
        assert translate(translator, "-b.price").type is SqlType.INT
        assert code_of(translate, translator, "-b.item") == "type_mismatch"

    @pytest.mark.parametrize("text", [
        "b.price LIKE 'x%'", "b.item + 1", "b.item * 2",
    ])
    def test_operand_types_checked(self, translator, text):
        assert code_of(translate, translator, text) == "type_mismatch"

    def test_case_result_type(self, translator):
        out = translate(
            translator, "CASE WHEN b.price > 1 THEN 'hi' ELSE 'lo' END"
        )
        assert out.type is SqlType.STRING

    def test_cast_types(self, translator):
        assert translate(translator, "CAST(b.price AS DOUBLE)").type is SqlType.FLOAT
        assert code_of(
            translate, translator, "CAST(b.price AS BLOB)"
        ) == "type_mismatch"

    def test_scalar_function_types(self, translator):
        assert translate(translator, "UPPER(b.item)").type is SqlType.STRING
        assert translate(translator, "ABS(b.price)").type is SqlType.INT
        assert translate(translator, "COALESCE(b.price, 0)").type is SqlType.INT

    def test_aggregate_rejected_outside_aggregation(self, translator):
        with pytest.raises(ValidationError, match="not allowed here"):
            translate(translator, "MAX(b.price)")

    def test_unary_minus_on_literal_folds(self, translator):
        out = translate(translator, "-5")
        assert isinstance(out, rex.RexLiteral)
        assert out.value == -5
