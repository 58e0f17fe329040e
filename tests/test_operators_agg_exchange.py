"""Tests for aggregation and filter/project."""

from __future__ import annotations

import numpy as np
import pytest

from repro.operators import (
    estimate_filter_project,
    estimate_hash_aggregate,
    estimate_merge_partials,
    filter_project_kernel,
    hash_aggregate_kernel,
    merge_partials_kernel,
)
from repro.relational import agg_avg, agg_count, agg_sum, col, lit


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
