"""Expression AST used by filters, projections and aggregations.

Expressions are interpreted: :meth:`Expr.evaluate` walks the tree,
vectorized over a mapping of column name to NumPy array.  That is the one
evaluator; nothing renders an expression to source.  :func:`evaluate_all`
runs it over an expression set (a projection list, an aggregate's inputs)
evaluating each repeated subtree once.
"""

from __future__ import annotations

from collections import ChainMap, Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Union

import numpy as np

from ..errors import ExpressionError

ArrayMap = Mapping[str, np.ndarray]
Scalar = Union[int, float, bool, str]


class Expr:
    """Base class of all expression nodes."""

    def columns(self) -> set[str]:
        """The set of column names the expression reads."""
        raise NotImplementedError

    def evaluate(self, columns: ArrayMap) -> np.ndarray:
        """Vectorized evaluation over a block of columns."""
        raise NotImplementedError

    @cached_property
    def children(self) -> tuple["Expr", ...]:
        """The operand subtrees (none for a column or a literal); kept on
        the node, which never changes — cost estimates walk it per query."""
        return tuple(value for value in vars(self).values()
                     if isinstance(value, Expr))

    # --- operator sugar -------------------------------------------------
    def _wrap(self, other: "Expr | Scalar") -> "Expr":
        return other if isinstance(other, Expr) else Literal(other)

    def __add__(self, other): return Arithmetic("+", self, self._wrap(other))
    def __radd__(self, other): return Arithmetic("+", self._wrap(other), self)
    def __sub__(self, other): return Arithmetic("-", self, self._wrap(other))
    def __rsub__(self, other): return Arithmetic("-", self._wrap(other), self)
    def __mul__(self, other): return Arithmetic("*", self, self._wrap(other))
    def __rmul__(self, other): return Arithmetic("*", self._wrap(other), self)
    def __truediv__(self, other): return Arithmetic("/", self, self._wrap(other))
    def __floordiv__(self, other): return Arithmetic("//", self, self._wrap(other))
    def __eq__(self, other): return Comparison("==", self, self._wrap(other))  # type: ignore[override]
    def __ne__(self, other): return Comparison("!=", self, self._wrap(other))  # type: ignore[override]
    def __lt__(self, other): return Comparison("<", self, self._wrap(other))
    def __le__(self, other): return Comparison("<=", self, self._wrap(other))
    def __gt__(self, other): return Comparison(">", self, self._wrap(other))
    def __ge__(self, other): return Comparison(">=", self, self._wrap(other))
    def __and__(self, other): return BooleanOp("and", self, self._wrap(other))
    def __or__(self, other): return BooleanOp("or", self, self._wrap(other))
    def __invert__(self): return BooleanNot(self)

    __hash__ = object.__hash__


@dataclass(frozen=True, eq=False)
class ColumnRef(Expr):
    """A reference to an input column."""

    name: str

    def columns(self) -> set[str]:
        return {self.name}

    def evaluate(self, columns: ArrayMap) -> np.ndarray:
        try:
            return np.asarray(columns[self.name])
        except KeyError as exc:
            raise ExpressionError(
                f"unknown column {self.name!r}; available: {sorted(columns)}"
            ) from exc

    def __repr__(self) -> str:
        return f"col({self.name!r})"


@dataclass(frozen=True, eq=False)
class Literal(Expr):
    """A scalar constant."""

    value: Scalar

    def columns(self) -> set[str]:
        return set()

    def evaluate(self, columns: ArrayMap) -> np.ndarray:
        return np.asarray(self.value)

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


_ARITH = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "//": np.floor_divide,
}

_COMPARE = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


@dataclass(frozen=True, eq=False)
class Arithmetic(Expr):
    """A binary arithmetic expression."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITH:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def evaluate(self, columns: ArrayMap) -> np.ndarray:
        return _ARITH[self.op](self.left.evaluate(columns),
                               self.right.evaluate(columns))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True, eq=False)
class Comparison(Expr):
    """A binary comparison producing a boolean mask.

    An integer column compared with a Python ``int`` literal its dtype
    holds is compared at the column's width: the literal goes in as the
    Python ``int`` (a weak scalar), not as the ``int64`` array
    :meth:`Literal.evaluate` makes, which would widen the column first.
    The booleans are the same.
    """

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _COMPARE:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def evaluate(self, columns: ArrayMap) -> np.ndarray:
        left, right = self.left.evaluate(columns), self.right.evaluate(columns)
        return _COMPARE[self.op](_at_width(self.left, left, right),
                                 _at_width(self.right, right, left))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def _at_width(expr: Expr, value: np.ndarray, other: np.ndarray):
    """The comparison operand ``value`` that ``expr`` evaluated to, or the
    Python ``int`` of an ``int`` literal that ``other``'s integer dtype
    holds."""
    literal = expr.value if isinstance(expr, Literal) else None
    if type(literal) is int and other.dtype.kind in "iu" and (
            np.iinfo(other.dtype).min <= literal <= np.iinfo(other.dtype).max):
        return literal
    return value


@dataclass(frozen=True, eq=False)
class BooleanOp(Expr):
    """Conjunction/disjunction of boolean expressions."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise ExpressionError(f"unknown boolean operator {self.op!r}")

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def evaluate(self, columns: ArrayMap) -> np.ndarray:
        left = np.asarray(self.left.evaluate(columns), dtype=bool)
        right = np.asarray(self.right.evaluate(columns), dtype=bool)
        return left & right if self.op == "and" else left | right

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True, eq=False)
class BooleanNot(Expr):
    """Negation of a boolean expression."""

    operand: Expr

    def columns(self) -> set[str]:
        return self.operand.columns()

    def evaluate(self, columns: ArrayMap) -> np.ndarray:
        return ~np.asarray(self.operand.evaluate(columns), dtype=bool)

    def __repr__(self) -> str:
        return f"(not {self.operand!r})"


def col(name: str) -> ColumnRef:
    """Reference an input column."""
    return ColumnRef(name)


def lit(value: Scalar) -> Literal:
    """A literal scalar value."""
    return Literal(value)


def between(expr: Expr, low: Scalar, high: Scalar) -> Expr:
    """Inclusive range predicate ``low <= expr <= high``."""
    return (expr >= lit(low)) & (expr <= lit(high))


def evaluate_all(exprs: Sequence[Expr], columns: ArrayMap) -> list[np.ndarray]:
    """Evaluate several expressions over one batch.

    A subtree occurring more than once among them — the same structure,
    its ``repr`` — is evaluated once and its array reused.  Nothing is
    reassociated, so every result has the bits of evaluating it alone; and
    only repeated subtrees are kept, so one-off temporaries are freed as
    evaluation goes.
    """
    seen: Counter[str] = Counter()
    for expr in exprs:
        _count(expr, seen)
    scope = ChainMap({}, columns)
    return [_bind(expr, seen, scope).evaluate(scope) for expr in exprs]


# Module-level, not closures: a recursive closure is a reference cycle,
# and it would keep the batch it evaluated alive until the cyclic GC ran.
def _count(expr: Expr, seen: Counter[str]) -> None:
    """Count each subtree; a repeat's operands count with its first."""
    seen[repr(expr)] += 1
    if seen[repr(expr)] == 1:
        for child in expr.children:
            _count(child, seen)


def _bind(expr: Expr, seen: Counter[str], scope: ChainMap,
          top: bool = False) -> Expr:
    """``expr`` reading each repeated subtree in it — itself too, unless
    ``top`` — from ``scope``'s first map, evaluated there operands first."""
    name = "\0" + repr(expr)
    if top or seen[name[1:]] == 1 or not expr.children:
        return replace(expr, **{field: _bind(value, seen, scope)
                                for field, value in vars(expr).items()
                                if isinstance(value, Expr)})
    if name not in scope.maps[0]:
        scope.maps[0][name] = _bind(expr, seen, scope, True).evaluate(scope)
    return ColumnRef(name)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate of an aggregation operator."""

    func: str
    expr: Expr | None
    alias: str

    SUPPORTED = ("sum", "count", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.func not in self.SUPPORTED:
            raise ExpressionError(
                f"unsupported aggregate {self.func!r}; expected one of "
                f"{self.SUPPORTED}"
            )
        if self.func != "count" and self.expr is None:
            raise ExpressionError(f"aggregate {self.func!r} needs an expression")

    def columns(self) -> set[str]:
        return self.expr.columns() if self.expr is not None else set()


def agg_sum(expr: Expr, alias: str) -> AggregateSpec:
    return AggregateSpec("sum", expr, alias)


def agg_avg(expr: Expr, alias: str) -> AggregateSpec:
    return AggregateSpec("avg", expr, alias)


def agg_count(alias: str) -> AggregateSpec:
    return AggregateSpec("count", None, alias)


def agg_min(expr: Expr, alias: str) -> AggregateSpec:
    return AggregateSpec("min", expr, alias)


def agg_max(expr: Expr, alias: str) -> AggregateSpec:
    return AggregateSpec("max", expr, alias)
