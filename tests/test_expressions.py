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
from repro.relational import expr as expr_module
from repro.relational.expr import AggregateSpec, Comparison


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


_INTEGER_DTYPES = [np.dtype(f"{kind}{bits}") for kind in ("int", "uint")
                   for bits in (8, 16, 32, 64)]
_OPS = sorted(expr_module._COMPARE)


def _literals(dtype: np.dtype) -> list[int]:
    """Literals inside, at, just past and far past ``dtype``'s limits."""
    info = np.iinfo(dtype)
    near = {info.min - 1, info.min, info.min + 1, -1, 0, 1, info.max // 3,
            info.max - 1, info.max, info.max + 1}
    return sorted(near | {-2**63, 2**63, 2**64 - 1})


def _column(dtype: np.dtype) -> np.ndarray:
    info = np.iinfo(dtype)
    values = {info.min, info.min + 1, 0, 1, info.max // 3, info.max - 1,
              info.max}
    return np.asarray(sorted(values), dtype=dtype)


@pytest.fixture
def operands(monkeypatch):
    """The operand types each comparison ufunc is called with."""
    seen = []
    for op, ufunc in expr_module._COMPARE.items():
        monkeypatch.setitem(
            expr_module._COMPARE, op,
            lambda left, right, ufunc=ufunc: seen.append(
                (type(left), type(right))) or ufunc(left, right))
    return seen


class TestComparisonWidth:
    """An integer column meets an ``int`` literal its dtype holds at the
    column's width; every other pairing keeps the widened literal."""

    @pytest.mark.parametrize("dtype", _INTEGER_DTYPES, ids=str)
    def test_same_booleans_as_the_widened_literal(self, dtype, operands):
        columns = {"x": _column(dtype)}
        info = np.iinfo(dtype)
        for value in _literals(dtype):
            for op in _OPS:
                reference = expr_module._COMPARE[op]
                for expr, expected in (
                        (Comparison(op, col("x"), lit(value)),
                         reference(columns["x"], np.asarray(value))),
                        (Comparison(op, lit(value), col("x")),
                         reference(np.asarray(value), columns["x"]))):
                    operands.clear()
                    got = expr.evaluate(columns)
                    assert got.dtype == bool and got.tolist() == (
                        expected.tolist()), (dtype, op, value)
                    fits = info.min <= value <= info.max
                    assert (int in operands[-1]) == fits, (dtype, op, value)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_columns_keep_the_widened_literal(self, dtype, operands):
        # 2**24 + 1 is no float32: at the column's width it would round.
        columns = {"x": np.asarray([2.0**24, 2.0**24 + 2, -1.0], dtype=dtype)}
        for value in (2**24 + 1, 0, -1):
            got = (col("x") == lit(value)).evaluate(columns)
            assert got.tolist() == (columns["x"] == np.asarray(value)).tolist()
            assert operands[-1] == (np.ndarray, np.ndarray)
        assert not (col("x") == lit(2**24 + 1)).evaluate(columns).any()

    def test_bool_and_numpy_literals_keep_the_widened_literal(
            self, operands):
        columns = {"x": np.asarray([0, 1, 2], dtype=np.int8)}
        for value in (True, False, np.int64(1), np.int8(2), 1.0):
            got = (col("x") >= lit(value)).evaluate(columns)
            assert got.tolist() == (columns["x"] >= np.asarray(value)).tolist()
            assert operands[-1] == (np.ndarray, np.ndarray), value


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
