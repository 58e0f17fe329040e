"""Tests for the expression AST: evaluation and aggregates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ExpressionError
from repro.relational import (
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    between,
    col,
    lit,
)
from repro.relational.expr import AggregateSpec


@pytest.fixture
def columns():
    return {
        "a": np.asarray([1.0, 2.0, 3.0, 4.0]),
        "b": np.asarray([10.0, 20.0, 30.0, 40.0]),
        "flag": np.asarray([1, 0, 1, 0]),
    }


class TestEvaluation:
    def test_arithmetic(self, columns):
        expr = (col("a") + col("b")) * lit(2.0) - lit(1.0)
        expected = (columns["a"] + columns["b"]) * 2.0 - 1.0
        np.testing.assert_allclose(expr.evaluate(columns), expected)

    def test_division_variants(self, columns):
        np.testing.assert_allclose((col("b") / col("a")).evaluate(columns),
                                   columns["b"] / columns["a"])
        np.testing.assert_array_equal(
            (col("b") // lit(7.0)).evaluate(columns), columns["b"] // 7.0)

    def test_comparisons_and_boolean_ops(self, columns):
        expr = (col("a") >= lit(2.0)) & ~(col("b") > lit(30.0))
        np.testing.assert_array_equal(
            expr.evaluate(columns),
            (columns["a"] >= 2.0) & ~(columns["b"] > 30.0))
        either = (col("a") == lit(1.0)) | (col("a") == lit(4.0))
        assert either.evaluate(columns).sum() == 2

    def test_between(self, columns):
        expr = between(col("a"), 2.0, 3.0)
        assert expr.evaluate(columns).tolist() == [False, True, True, False]

    def test_unknown_column_raises(self, columns):
        with pytest.raises(ExpressionError):
            col("missing").evaluate(columns)

    def test_columns_tracking(self):
        expr = (col("a") + col("b")) > col("c")
        assert expr.columns() == {"a", "b", "c"}
        assert lit(3).columns() == set()

    def test_invalid_operators_rejected(self):
        from repro.relational.expr import Arithmetic, BooleanOp, Comparison
        with pytest.raises(ExpressionError):
            Arithmetic("%", col("a"), lit(2))
        with pytest.raises(ExpressionError):
            Comparison("<>", col("a"), lit(2))
        with pytest.raises(ExpressionError):
            BooleanOp("xor", col("a"), col("b"))

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False),
           st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_eval_matches_numpy_property(self, x, y):
        columns = {"a": np.asarray([x]), "b": np.asarray([y])}
        expr = col("a") * lit(2.0) + col("b")
        assert expr.evaluate(columns)[0] == pytest.approx(2.0 * x + y)


class TestAggregateSpecs:
    def test_constructors(self):
        assert agg_sum(col("a"), "s").func == "sum"
        assert agg_avg(col("a"), "m").func == "avg"
        assert agg_min(col("a"), "lo").func == "min"
        assert agg_max(col("a"), "hi").func == "max"
        assert agg_count("n").expr is None

    def test_invalid_aggregates(self):
        with pytest.raises(ExpressionError):
            AggregateSpec("median", col("a"), "m")
        with pytest.raises(ExpressionError):
            AggregateSpec("sum", None, "s")

    def test_aggregate_columns(self):
        assert agg_sum(col("a") * col("b"), "s").columns() == {"a", "b"}
        assert agg_count("n").columns() == set()
