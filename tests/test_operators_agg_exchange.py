"""Tests for aggregation and filter/project."""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.operators import (
    estimate_filter_project,
    estimate_hash_aggregate,
    estimate_merge_partials,
    filter_project_kernel,
    hash_aggregate_kernel,
    merge_partials_kernel,
)
from repro.relational import (
    KeyDomain,
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    col,
    execute_logical,
    lit,
    scan,
)
from repro.relational.keys import DIRECTORY_BUCKETS_PER_ROW
from repro.storage import Catalog, Table


@pytest.fixture
def columns():
    return {
        "group": np.asarray([0, 1, 0, 1, 2], dtype=np.int32),
        "value": np.asarray([1.0, 2.0, 3.0, 4.0, 5.0]),
    }


class TestFilterProject:
    def test_filter_and_project(self, columns, cpu):
        work = dict(predicate=col("value") > lit(2.0),
                    projections={"double": col("value") * lit(2.0),
                                 "group": col("group")})
        result, stats = filter_project_kernel(columns, **work)
        assert result["double"].tolist() == [6.0, 8.0, 10.0]
        assert result["group"].tolist() == [0, 1, 2]
        assert estimate_filter_project(stats, cpu, **work).seconds > 0

    def test_projection_only(self, columns):
        result, _ = filter_project_kernel(columns,
                                          projections={"v": col("value")})
        assert list(result) == ["v"] and len(result["v"]) == 5

    def test_empty_input(self):
        result, _ = filter_project_kernel({"x": np.asarray([])[:0]},
                                          predicate=col("x") > lit(1))
        assert len(result["x"]) == 0

    def test_gpu_charges_kernel_launch(self, columns, gpu):
        predicate = col("value") > lit(0.0)
        _, stats = filter_project_kernel(columns, predicate=predicate)
        cost = estimate_filter_project(stats, gpu, predicate=predicate)
        assert "kernel-launch" in cost.breakdown


class TestAggregation:
    def test_grouped_aggregate_matches_numpy(self, columns, cpu):
        aggregates = [agg_sum(col("value"), "total"), agg_count("n"),
                      agg_avg(col("value"), "mean")]
        result, stats = hash_aggregate_kernel(columns, group_by=["group"],
                                              aggregates=aggregates)
        by_group = dict(zip(result["group"].tolist(),
                            result["total"].tolist()))
        assert by_group == {0: 4.0, 1: 6.0, 2: 5.0}
        means = dict(zip(result["group"].tolist(), result["mean"].tolist()))
        assert means[0] == pytest.approx(2.0)
        assert (stats.num_rows, stats.num_groups) == (5, 3)
        assert estimate_hash_aggregate(
            stats, cpu, aggregates=aggregates).seconds > 0

    def test_grand_aggregate(self, columns):
        result, _ = hash_aggregate_kernel(
            columns, group_by=[], aggregates=[agg_sum(col("value"), "s")])
        assert result["s"][0] == pytest.approx(15.0)

    def test_partial_then_merge_equals_complete(self, columns, cpu):
        work = dict(group_by=["group"],
                    aggregates=[agg_sum(col("value"), "total"),
                                agg_avg(col("value"), "mean"),
                                agg_count("n")])
        first = {name: values[:3] for name, values in columns.items()}
        second = {name: values[3:] for name, values in columns.items()}
        partials = [hash_aggregate_kernel(half, phase="partial", **work)[0]
                    for half in (first, second)]
        merged, nbytes = merge_partials_kernel(partials, **work)
        assert estimate_merge_partials(nbytes, cpu).seconds > 0
        complete, _ = hash_aggregate_kernel(columns, phase="complete", **work)
        merged_sorted = {k: np.asarray(v)[np.argsort(merged["group"])]
                         for k, v in merged.items()}
        complete_sorted = {k: np.asarray(v)[np.argsort(complete["group"])]
                           for k, v in complete.items()}
        for key in ("total", "mean", "n"):
            np.testing.assert_allclose(merged_sorted[key], complete_sorted[key])

    def test_empty_aggregate(self):
        result, _ = hash_aggregate_kernel({}, group_by=[],
                                          aggregates=[agg_count("n")])
        assert len(result["n"]) in (0, 1)


# ----------------------------------------------------------------------
# Slot-major group-bys: the same bytes as the reference executor
# ----------------------------------------------------------------------
_INTEGRAL = [np.dtype(name) for name in
             ("bool", "int8", "uint16", "int32", "int64")]
_AGGREGATES = [agg_count("n"), agg_sum(col("v"), "s"), agg_avg(col("v"), "m"),
               agg_min(col("v"), "lo"), agg_max(col("v"), "hi")]


@st.composite
def _key_values(draw, dtype: np.dtype) -> list[int]:
    """The values one group-by column ranges over: a few neighbours from
    either end of the dtype or from zero, or its extremes (a sparse
    domain)."""
    lo, hi = (0, 1) if dtype == bool else (int(np.iinfo(dtype).min),
                                           int(np.iinfo(dtype).max))
    if draw(st.integers(0, 3)) == 0:
        return sorted({lo, max(lo, 0), hi})
    span = draw(st.integers(1, min(6, hi - lo + 1)))
    low = draw(st.sampled_from([lo, max(lo, 0), hi - span + 1])
               | st.integers(lo, hi - span + 1))
    return list(range(low, low + span))


@st.composite
def _grouped_batch(draw):
    """``(columns, group-by names)``: integral keys whose tuples fill their
    domain exactly once, fill it with repeats, leave slots empty, or are
    drawn at random; ``v`` holds small integers, so every partial sum is
    exact and a merge has the bits of a single pass."""
    dtypes = [draw(st.sampled_from(_INTEGRAL))
              for _ in range(draw(st.integers(1, 2)))]
    domain = list(itertools.product(*(draw(_key_values(dtype))
                                      for dtype in dtypes)))
    shape = draw(st.sampled_from(["once", "repeats", "corners", "drawn"]))
    if shape == "once":
        tuples = domain
    elif shape == "repeats":
        tuples = domain + draw(st.lists(st.sampled_from(domain), max_size=8))
    elif shape == "corners":   # the ends keep the domain, the middle goes
        tuples = [domain[0], domain[-1]] * draw(st.integers(1, 3))
    else:
        tuples = draw(st.lists(st.sampled_from(domain), min_size=1,
                               max_size=24))
    tuples = draw(st.permutations(tuples))
    columns = {f"g{index}": np.asarray([row[index] for row in tuples],
                                       dtype=dtype)
               for index, dtype in enumerate(dtypes)}
    columns["v"] = np.asarray(draw(st.lists(
        st.integers(-1000, 1000), min_size=len(tuples),
        max_size=len(tuples))), dtype=np.float64)
    return columns, [name for name in columns if name != "v"]


def _assert_same_bytes(got, expected: Table, context) -> None:
    """``got``, stored as a result table stores it, has the reference's
    bytes."""
    got = Table.from_arrays("got", got)
    assert tuple(got.column_names) == tuple(expected.column_names), context
    for name in expected.column_names:
        want = expected.array(name)
        assert got.array(name).dtype == want.dtype, (context, name)
        assert got.array(name).tobytes() == want.tobytes(), (context, name)


class TestSlotMajorGroupBy:
    def test_kernels_match_the_reference_byte_for_byte(self):
        taken = Counter()

        @given(_grouped_batch(), st.data())
        @settings(max_examples=300, deadline=None, derandomize=True)
        def check(batch, data):
            columns, group_by = batch
            catalog = Catalog()
            catalog.register(Table.from_arrays("t", columns))
            plan = scan("t").aggregate(group_by, _AGGREGATES)
            expected = execute_logical(plan, catalog)
            work = {"group_by": group_by, "aggregates": _AGGREGATES}
            complete, stats = hash_aggregate_kernel(columns, **work)
            _assert_same_bytes(complete, expected, columns)
            for name in group_by:   # decoded at the input's own width
                assert complete[name].dtype == columns[name].dtype
            rows = len(columns["v"])
            distinct = len(set(zip(*(columns[name].tolist()
                                     for name in group_by))))
            assert stats.num_groups == distinct == expected.num_rows
            cut = data.draw(st.integers(0, rows))
            partials = [hash_aggregate_kernel(
                {name: values[part] for name, values in columns.items()},
                phase="partial", **work)[0]
                for part in (slice(None, cut), slice(cut, None))]
            merged, _ = merge_partials_kernel(partials, **work)
            _assert_same_bytes(merged, expected, (columns, cut))
            domain = KeyDomain(columns, group_by)
            size = domain.size
            if size is None:   # one column, its own code: its range
                values = columns[group_by[0]].astype(np.int64)
                size = int(values.max()) - int(values.min()) + 1
            taken[
                "falls back" if size > DIRECTORY_BUCKETS_PER_ROW * rows else
                "size = rows" if size == rows == distinct else
                "every slot full" if size == distinct else
                "some slots empty"] += 1

        check()
        assert min(taken.values()) > 20 and len(taken) == 4, taken

    @pytest.mark.parametrize("last", [0.0, -0.0])
    def test_ranked_keys_take_a_row_of_their_group(self, last):
        """``-0.0`` and ``0.0`` are one group, NaN another: the group-by
        column shows the bits of the group's last row, as the reference
        executor's does, not of the value its rank stands for."""
        nan = float("nan")
        columns = {"g": np.asarray([nan, -last, 2.5, nan, last, 2.5]),
                   "v": np.arange(6.0)}
        catalog = Catalog()
        catalog.register(Table.from_arrays("t", columns))
        expected = execute_logical(
            scan("t").aggregate(["g"], _AGGREGATES), catalog)
        result, stats = hash_aggregate_kernel(
            columns, group_by=["g"], aggregates=_AGGREGATES)
        _assert_same_bytes(result, expected, last)
        assert stats.num_groups == 3
        assert np.signbit(result["g"][0]) == np.signbit(last)
        assert result["n"].tolist() == [2, 2, 2]
