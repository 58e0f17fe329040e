"""Row-position views: what a fused chain carries instead of columns.

Inside a fused chain a morsel is a :class:`~repro.operators.base.Rows`
view — column name -> (source array, row positions).  A filter or a join
probe composes positions; a column is gathered the first time something
reads it, once.  Three layers of guarantees:

* the view's byte count equals the gathered arrays' ``nbytes`` exactly,
  so every stats record (and so every simulated second) reads it without
  gathering;
* on the TPC-H join chains, the fused chain gathers only what its stages
  read, each column once, and never a build column nothing reads;
* a repeated expression is evaluated once per projection set, and
  aggregates over one input share one sum — with the bits of independent
  evaluation.

A filter that keeps every row moves nothing: it returns its input view as
it is.  A constant predicate — every row or none — is pinned beside the
fuzzer's other edges (``tests/test_fuzz_plans.py::TestZeroRowEdges``).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.engine import Executor, HAPEEngine
from repro.engine import descriptions
from repro.hardware import default_server
from repro.operators import (
    Rows,
    filter_project_kernel,
    filter_project_morsel,
    hash_aggregate_kernel,
)
from repro.relational import (
    PAggregate,
    PFilterProject,
    col,
    execute_logical,
    lit,
)
from repro.relational.expr import Arithmetic
from repro.storage import (
    DEFAULT_MORSEL_ROWS,
    concat_columns,
    generate_tpch,
    iter_morsels,
)
from repro.workloads import build_query


def _typed_columns(num_rows: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(num_rows)
    return {
        "i8": rng.integers(-100, 100, num_rows).astype(np.int8),
        "i32": rng.integers(-10**6, 10**6, num_rows).astype(np.int32),
        "i64": rng.integers(-10**12, 10**12, num_rows),
        "f64": rng.normal(size=num_rows),
        "flag": rng.integers(0, 2, num_rows).astype(bool),
    }


# ----------------------------------------------------------------------
# The view's bytes are the gathered bytes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("morsel_rows", [1, 7, DEFAULT_MORSEL_ROWS])
def test_view_bytes_equal_gathered_bytes(morsel_rows):
    """Under composed positions — a filter, then a probe that repeats and
    drops rows — ``nbytes(names)`` is the materialized ``nbytes``, for
    every dtype and every subset of columns."""
    columns = _typed_columns(300)
    subsets = [None, {"i8"}, {"i32", "flag"}, {"i64", "f64", "absent"}]
    for morsel in iter_morsels(columns, morsel_rows):
        rows = Rows.of(morsel)
        selected = rows.take(np.flatnonzero(rows["flag"]))
        probed = selected.take(np.repeat(np.arange(selected.num_rows),
                                         np.arange(selected.num_rows) % 3))
        for view in (rows, selected, probed):
            gathered = dict(view)
            for names in subsets:
                assert view.nbytes(names) == sum(
                    values.nbytes for name, values in gathered.items()
                    if names is None or name in names)


def test_view_gathers_a_column_once_and_carries_it():
    """A column is gathered the first time it is read; views taken from
    the view read the gathered array instead of gathering again."""
    columns = _typed_columns(50)
    positions = np.arange(0, 50, 2)
    view = Rows.of(columns).take(positions)
    first = view["i32"]
    assert view["i32"] is first
    np.testing.assert_array_equal(first, columns["i32"][positions])
    assert view.take(None).pairs["i32"] == (first, None)
    kept = view.take(np.arange(5))
    assert kept.pairs["i32"][0] is first
    # Columns not yet read share one composed positions array.
    assert kept.pairs["i8"][1] is kept.pairs["f64"][1]


# ----------------------------------------------------------------------
# A filter that keeps every row moves nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("predicate", [
    col("i64") > lit(-10**13), lit(1) == lit(1)],
    ids=["all-true", "constant-true"])
def test_a_filter_that_keeps_every_row_returns_its_input(predicate):
    columns = _typed_columns(100)
    out = filter_project_morsel(columns, predicate=predicate)
    assert out.num_rows == 100
    for name, values in columns.items():
        assert out[name] is values, name


@pytest.mark.parametrize("morsel_rows", [1, 7, 64])
def test_kept_and_filtered_morsels_concatenate_to_the_kernel(morsel_rows):
    """Morsels the filter keeps whole pass through untouched, the others
    are gathered; reassembled, they are the whole-batch kernel's bits."""
    columns = _typed_columns(300)
    columns["i64"][:150] = 10**13  # the first half passes every morsel
    predicate = col("i64") > lit(0)
    projections = {"i32": col("i32"), "scaled": col("f64") * lit(2.0)}
    parts, kept = [], []
    for morsel in iter_morsels(columns, morsel_rows):
        out = filter_project_morsel(morsel, predicate=predicate)
        kept.append(out.num_rows == len(morsel["i64"]))
        parts.append(dict(filter_project_morsel(
            out, projections=projections)))
    assert any(kept) and not all(kept)
    expected, _ = filter_project_kernel(columns, predicate=predicate,
                                        projections=projections)
    streamed = concat_columns(parts)
    assert list(streamed) == list(expected)
    for name, values in expected.items():
        assert streamed[name].dtype == values.dtype
        assert streamed[name].tobytes() == values.tobytes(), name


# ----------------------------------------------------------------------
# Fused chains gather only what they read
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_engine():
    dataset = generate_tpch(0.01, seed=2019)
    engine = HAPEEngine(default_server(), cache_budget_bytes=0)
    engine.register_dataset(dataset.tables)
    return engine, dataset


@pytest.mark.parametrize("query,unread", [
    ("Q9", {"ps_partkey", "ps_suppkey", "o_orderkey", "s_suppkey",
            "s_nationkey", "n_nationkey"}),
    ("Q5", {"o_orderkey", "o_custkey", "o_orderdate", "c_custkey",
            "s_suppkey", "s_nationkey", "n_nationkey", "n_regionkey",
            "r_regionkey", "r_name"}),
])
def test_fused_chain_gathers_what_it_reads_once(small_engine, monkeypatch,
                                                query, unread):
    engine, dataset = small_engine
    plan = build_query(query, dataset).plan
    physical = engine.plan(plan, "cpu")
    top = next(node for node in physical.walk()
               if isinstance(node, PFilterProject) and node.projections)
    gathers: list[str] = []
    tops: list[Rows] = []
    in_chain = []
    real_getitem, real_evaluate = Rows.__getitem__, Executor._evaluate
    real_morsel = descriptions.filter_project_morsel

    def getitem(self, name):
        moved = self.pairs.get(name, (None, None))[1] is not None
        if in_chain[-1] and moved and name not in self._read:
            gathers.append(name)
        return real_getitem(self, name)

    def evaluate(self, chain, source, builds):
        in_chain.append(chain.ops[-1].node is top)
        try:
            return real_evaluate(self, chain, source, builds)
        finally:
            in_chain.pop()

    def morsel(batch, *, predicate=None, projections=None):
        if projections is top.projections:
            tops.append(batch)
        return real_morsel(batch, predicate=predicate,
                           projections=projections)

    monkeypatch.setattr(Rows, "__getitem__", getitem)
    monkeypatch.setattr(Executor, "_evaluate", evaluate)
    monkeypatch.setattr(descriptions, "filter_project_morsel", morsel)
    in_chain.append(False)  # outside every chain until _evaluate says so
    result = engine.execute(plan, "cpu")
    in_chain.pop()

    assert result.table.equals(execute_logical(plan, engine.catalog),
                               check_order=False)
    # The chain top bound exactly the columns its projections read ...
    read = set().union(*(expr.columns()
                         for expr in top.projections.values()))
    assert tops and all(set(view._read) == read for view in tops)
    # ... and the whole chain gathered each column at most once, the
    # projection's moved columns among them, and no unread build column.
    counts = Counter(gathers)
    assert counts and max(counts.values()) == 1, counts
    assert not unread & set(counts), unread & set(counts)
    assert {"n_name"} <= set(counts) <= read | {
        "l_suppkey", "c_nationkey"}


# ----------------------------------------------------------------------
# Common subexpressions
# ----------------------------------------------------------------------
def _q1_nodes(small_engine):
    engine, dataset = small_engine
    physical = engine.plan(build_query("Q1", dataset).plan, "cpu")
    project = next(node for node in physical.walk()
                   if isinstance(node, PFilterProject) and node.projections)
    aggregate = next(node for node in physical.walk()
                     if isinstance(node, PAggregate))
    return dataset.table("lineitem").arrays(), project, aggregate


def test_q1_discounted_price_is_evaluated_once(small_engine, monkeypatch):
    lineitem, project, _ = _q1_nodes(small_engine)
    shared = "(col('l_extendedprice') * (lit(1.0) - col('l_discount')))"
    evaluated: list[str] = []
    real = Arithmetic.evaluate

    def spy(self, columns):
        evaluated.append(repr(self))
        return real(self, columns)

    monkeypatch.setattr(Arithmetic, "evaluate", spy)
    columns, _ = filter_project_kernel(lineitem, predicate=project.predicate,
                                       projections=project.projections)
    assert sum(repr(expr).count(shared)
               for expr in project.projections.values()) == 2
    assert evaluated.count(shared) == 1
    monkeypatch.undo()
    # The same bits as evaluating every projection on its own.
    selected = filter_project_kernel(lineitem, predicate=project.predicate)[0]
    for alias, expr in project.projections.items():
        alone = np.asarray(expr.evaluate(selected))
        assert columns[alias].dtype == alone.dtype
        assert columns[alias].tobytes() == alone.tobytes(), alias


@pytest.mark.parametrize("phase", ["complete", "partial"])
def test_q1_sum_and_avg_share_one_bincount(small_engine, monkeypatch, phase):
    lineitem, project, aggregate = _q1_nodes(small_engine)
    batch = filter_project_kernel(lineitem, predicate=project.predicate,
                                  projections=project.projections)[0]
    specs = aggregate.aggregates
    weighted = []
    real = np.bincount

    def spy(*args, **kwargs):
        if kwargs.get("weights") is not None:
            weighted.append(kwargs["weights"])
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", spy)
    result, _ = hash_aggregate_kernel(batch, group_by=aggregate.group_by,
                                      aggregates=specs, phase=phase)
    inputs = {repr(spec.expr) for spec in specs if spec.func != "count"}
    assert len(weighted) == len(inputs) < sum(
        spec.func in ("sum", "avg") for spec in specs)
    monkeypatch.undo()
    for spec in specs:  # bit-identical to aggregating each spec alone
        alone, _ = hash_aggregate_kernel(batch, group_by=aggregate.group_by,
                                         aggregates=[spec], phase=phase)
        for name, values in alone.items():
            assert result[name].tobytes() == values.tobytes(), name


def test_repeated_subtrees_are_shared_by_structure():
    """Equal structure, distinct objects: evaluated once; a one-off
    subtree is not kept; nothing is reassociated."""
    columns = {"a": np.arange(6, dtype=np.float64),
               "b": np.linspace(0.1, 0.6, 6)}
    projections = {
        "x": (col("a") + col("b")) * lit(3.0),
        "y": (col("a") + col("b")) - lit(1.0),
        "z": col("a") * lit(3.0) + col("b"),
        "w": (col("a") + col("b")) * lit(3.0),
    }
    out = dict(filter_project_morsel(columns, projections=projections))
    for alias, expr in projections.items():
        assert out[alias].tobytes() == np.asarray(
            expr.evaluate(columns)).tobytes()
    # "x" and "w" are one subtree: one array serves both.
    assert out["x"] is out["w"]
