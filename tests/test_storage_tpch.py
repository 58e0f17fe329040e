"""Tests for the TPC-H data generator."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.storage import (
    BASE_CARDINALITIES,
    NATIONS,
    REGIONS,
    generate_tpch,
    tpch_cardinalities,
)


class TestCardinalities:
    def test_fixed_tables_ignore_scale_factor(self):
        counts = tpch_cardinalities(0.001)
        assert counts["region"] == 5
        assert counts["nation"] == 25

    def test_scaling_tables_follow_scale_factor(self):
        sf1 = tpch_cardinalities(1.0)
        sf2 = tpch_cardinalities(2.0)
        assert sf1["lineitem"] == BASE_CARDINALITIES["lineitem"]
        assert sf2["orders"] == 2 * sf1["orders"]

    def test_invalid_scale_factor(self):
        with pytest.raises(ValueError):
            tpch_cardinalities(0.0)


class TestGeneratedData:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_tpch(scale_factor=0.01, seed=11)

    def test_all_tables_present(self, dataset):
        assert set(dataset.tables) == set(BASE_CARDINALITIES)

    def test_nations_and_regions(self, dataset):
        nation = dataset.table("nation")
        region = dataset.table("region")
        assert nation.num_rows == len(NATIONS)
        assert region.num_rows == len(REGIONS)
        assert set(nation.array("n_regionkey")) <= set(region.array("r_regionkey"))

    def test_foreign_keys_are_valid(self, dataset):
        lineitem = dataset.table("lineitem")
        orders = dataset.table("orders")
        customer = dataset.table("customer")
        supplier = dataset.table("supplier")
        assert lineitem.array("l_orderkey").max() <= orders.num_rows
        assert lineitem.array("l_orderkey").min() >= 1
        assert orders.array("o_custkey").max() <= customer.num_rows
        assert lineitem.array("l_suppkey").max() <= supplier.num_rows

    def test_lineitem_joins_partsupp(self, dataset):
        """Every (l_partkey, l_suppkey) pair exists in partsupp (Q9 needs it)."""
        partsupp = dataset.table("partsupp")
        lineitem = dataset.table("lineitem")
        pairs = set(zip(partsupp.array("ps_partkey").tolist(),
                        partsupp.array("ps_suppkey").tolist()))
        sample = list(zip(lineitem.array("l_partkey")[:500].tolist(),
                          lineitem.array("l_suppkey")[:500].tolist()))
        assert all(pair in pairs for pair in sample)

    def test_dates_are_valid_yyyymmdd(self, dataset):
        shipdates = dataset.table("lineitem").array("l_shipdate")
        years = shipdates // 10000
        months = (shipdates // 100) % 100
        days = shipdates % 100
        assert years.min() >= 1992 and years.max() <= 1998
        assert months.min() >= 1 and months.max() <= 12
        assert days.min() >= 1 and days.max() <= 31

    def test_shipdate_follows_orderdate(self, dataset):
        lineitem = dataset.table("lineitem")
        orders = dataset.table("orders")
        orderdate = orders.array("o_orderdate")[lineitem.array("l_orderkey") - 1]
        assert bool(np.all(lineitem.array("l_shipdate") >= orderdate))

    def test_value_ranges(self, dataset):
        lineitem = dataset.table("lineitem")
        assert lineitem.array("l_quantity").min() >= 1
        assert lineitem.array("l_quantity").max() <= 50
        assert lineitem.array("l_discount").min() >= 0.0
        assert lineitem.array("l_discount").max() <= 0.10 + 1e-9
        assert lineitem.array("l_tax").max() <= 0.08 + 1e-9
        assert set(lineitem.column("l_returnflag").decoded()) <= {"A", "N", "R"}
        assert set(lineitem.column("l_linestatus").decoded()) <= {"F", "O"}

    def test_dictionaries_hold_python_str(self, dataset):
        for table in dataset.tables.values():
            head = table.head()
            for column in table.columns:
                if column.dictionary is None:
                    continue
                labels = column.dictionary.values
                assert all(type(label) is str for label in labels), column.name
                assert list(labels) == sorted(set(column.decoded()))
                assert all(type(value) is str for value in head[column.name])

    def test_deterministic_generation(self):
        first = generate_tpch(0.002, seed=5)
        second = generate_tpch(0.002, seed=5)
        assert first.table("lineitem").equals(second.table("lineitem"))

    def test_total_bytes_positive(self, dataset):
        assert dataset.total_bytes > 0


def _digest(dataset) -> str:
    """sha256 over every column's (table, name, dtype, bytes, dictionary)."""
    digest = hashlib.sha256()
    for table in dataset.tables.values():
        for column in table.columns:
            labels = [] if column.dictionary is None else column.dictionary.values
            digest.update(repr((table.name, column.name, column.dtype.name,
                                column.values.dtype.str,
                                [str(label) for label in labels])).encode())
            digest.update(column.values.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed, scale_factor, expected", [
    (2019, 0.01,
     "6f1526ca632442e147c1ee806bc3cd26ff05660f5f31151525b4d4224908b474"),
    (7, 0.01,
     "8644f769c82c283e01f75843a1ce0486bea602cdc5e73a0b2c29614552b1076b"),
    (2019, 0.00002,  # 120 lineitems
     "f843c145ba94017dd8fa4a93b3b141f849eb65ec359e2d1c9a7a331ca57e340b"),
])
def test_generated_bytes_are_pinned(seed, scale_factor, expected):
    """Any change to the generated bytes, types or dictionaries shows here
    (and moves every plan, statistic and simulated second downstream)."""
    assert _digest(generate_tpch(scale_factor, seed=seed)) == expected
