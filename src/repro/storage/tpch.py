"""TPC-H data generation (the subset Q1, Q5, Q6 and Q9 touch).

The paper evaluates TPC-H at scale factor 100 (Section 6.4).  Running SF 100
inside a Python process is neither possible nor necessary here: the engine's
functional correctness is validated at small scale factors against reference
implementations, and the paper-scale performance numbers are produced by the
analytic models in :mod:`repro.perf`, which consume the *cardinalities* this
module reports via :func:`tpch_cardinalities`.

The generator follows the TPC-H population rules closely enough for the
queries at hand: correct table cardinality ratios, 25 nations in 5 regions,
partsupp with four suppliers per part (and lineitem picking one of those
four), order dates in 1992-1998 with ship dates 1-121 days later, prices,
discounts and taxes in their specification ranges.

Every table is built in vectorized passes, with no Python work per row:
dates are gathered from a table of the days the rows span, and the
lineitem flag columns are dictionary-encoded straight from the label
indices drawn for them, without building a string per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .column import Column
from .dtypes import DATE, DICT32, FLOAT64, INT32, Dictionary, date_to_int
from .table import Table

#: TPC-H base cardinalities at scale factor 1.
BASE_CARDINALITIES = {
    "region": 5,
    "nation": 25,
    "supplier": 10_000,
    "customer": 150_000,
    "part": 200_000,
    "partsupp": 800_000,
    "orders": 1_500_000,
    "lineitem": 6_001_215,
}

#: The 25 TPC-H nations and the region each belongs to.
NATIONS = [
    ("ALGERIA", "AFRICA"), ("ARGENTINA", "AMERICA"), ("BRAZIL", "AMERICA"),
    ("CANADA", "AMERICA"), ("EGYPT", "MIDDLE EAST"), ("ETHIOPIA", "AFRICA"),
    ("FRANCE", "EUROPE"), ("GERMANY", "EUROPE"), ("INDIA", "ASIA"),
    ("INDONESIA", "ASIA"), ("IRAN", "MIDDLE EAST"), ("IRAQ", "MIDDLE EAST"),
    ("JAPAN", "ASIA"), ("JORDAN", "MIDDLE EAST"), ("KENYA", "AFRICA"),
    ("MOROCCO", "AFRICA"), ("MOZAMBIQUE", "AFRICA"), ("PERU", "AMERICA"),
    ("CHINA", "ASIA"), ("ROMANIA", "EUROPE"), ("SAUDI ARABIA", "MIDDLE EAST"),
    ("VIETNAM", "ASIA"), ("RUSSIA", "EUROPE"), ("UNITED KINGDOM", "EUROPE"),
    ("UNITED STATES", "AMERICA"),
]

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

_EPOCH = np.datetime64("1992-01-01")
_ORDER_DATE_SPAN_DAYS = 2405  # 1992-01-01 .. 1998-08-02, per the spec


@dataclass(frozen=True)
class TPCHDataset:
    """All generated TPC-H tables plus the scale factor they represent."""

    scale_factor: float
    tables: dict[str, Table]

    def table(self, name: str) -> Table:
        return self.tables[name]

    @property
    def total_bytes(self) -> int:
        return sum(table.nbytes for table in self.tables.values())


def tpch_cardinalities(scale_factor: float) -> dict[str, int]:
    """Row counts of every TPC-H table at the given scale factor."""
    if scale_factor <= 0:
        raise ValueError("scale_factor must be positive")
    counts = {}
    for name, base in BASE_CARDINALITIES.items():
        if name in ("region", "nation"):
            counts[name] = base
        else:
            counts[name] = max(int(round(base * scale_factor)), 1)
    return counts


def _days_to_yyyymmdd(days: np.ndarray) -> np.ndarray:
    """Convert day offsets from 1992-01-01 into YYYYMMDD integers.

    Each day in ``0..days.max()`` is converted once; rows gather the table.
    """
    dates = _EPOCH + np.arange(days.max() + 1).astype("timedelta64[D]")
    years = dates.astype("datetime64[Y]").astype(np.int64) + 1970
    months = dates.astype("datetime64[M]").astype(np.int64) % 12 + 1
    day_of_month = (dates - dates.astype("datetime64[M]")).astype(np.int64) + 1
    return (years * 10000 + months * 100 + day_of_month).astype(np.int32)[days]


def _label_column(name: str, labels: list[str], picks: np.ndarray) -> Column:
    """Dictionary-encode ``labels[picks]`` without building a string per row.

    The dictionary is the labels that occur, sorted, as
    :meth:`Column.from_strings` would build it from the strings.
    """
    present = sorted(np.flatnonzero(np.bincount(picks)).tolist(),
                     key=labels.__getitem__)
    remap = np.zeros(len(labels), dtype=np.int32)
    remap[present] = np.arange(len(present))
    return Column(name, remap[picks], DICT32,
                  Dictionary([labels[pick] for pick in present]))


def _suppliers_of_part(partkeys: np.ndarray, picks: np.ndarray,
                       num_suppliers: int) -> np.ndarray:
    """The supplier chosen for a (part, pick-index) pair.

    The same formula is used for generating ``partsupp`` and for picking
    ``l_suppkey`` in ``lineitem``, so every lineitem row joins with exactly
    one partsupp row — the property TPC-H Q9 relies on.
    """
    stride = max(num_suppliers // 4, 1)
    return ((partkeys - 1 + picks * stride) % num_suppliers + 1).astype(np.int32)


def generate_tpch(scale_factor: float = 0.01, *, seed: int = 2019,
                  location: str = "cpu0") -> TPCHDataset:
    """Generate the TPC-H tables needed by Q1, Q5, Q6 and Q9."""
    counts = tpch_cardinalities(scale_factor)
    rng = np.random.default_rng(seed)
    tables: dict[str, Table] = {}

    # region ------------------------------------------------------------
    region_names = Column.from_strings("r_name", REGIONS)
    tables["region"] = Table(
        "region",
        [Column("r_regionkey", np.arange(len(REGIONS), dtype=np.int32), INT32),
         region_names],
        location=location,
    )

    # nation ------------------------------------------------------------
    nation_names = Column.from_strings("n_name", [name for name, _ in NATIONS])
    nation_regions = np.asarray(
        [REGIONS.index(region) for _, region in NATIONS], dtype=np.int32
    )
    tables["nation"] = Table(
        "nation",
        [Column("n_nationkey", np.arange(len(NATIONS), dtype=np.int32), INT32),
         Column("n_regionkey", nation_regions, INT32),
         nation_names],
        location=location,
    )

    # supplier ----------------------------------------------------------
    num_suppliers = counts["supplier"]
    tables["supplier"] = Table.from_arrays(
        "supplier",
        {"s_suppkey": np.arange(1, num_suppliers + 1, dtype=np.int32),
         "s_nationkey": rng.integers(0, len(NATIONS), size=num_suppliers,
                                     dtype=np.int32)},
        location=location,
    )

    # customer ----------------------------------------------------------
    num_customers = counts["customer"]
    tables["customer"] = Table.from_arrays(
        "customer",
        {"c_custkey": np.arange(1, num_customers + 1, dtype=np.int32),
         "c_nationkey": rng.integers(0, len(NATIONS), size=num_customers,
                                     dtype=np.int32)},
        location=location,
    )

    # part ---------------------------------------------------------------
    num_parts = counts["part"]
    tables["part"] = Table.from_arrays(
        "part",
        {"p_partkey": np.arange(1, num_parts + 1, dtype=np.int32),
         "p_retailprice": (900.0 + (np.arange(1, num_parts + 1) % 1000) / 10.0)},
        location=location,
    )

    # partsupp -----------------------------------------------------------
    ps_partkey = np.repeat(np.arange(1, num_parts + 1, dtype=np.int32), 4)
    ps_pick = np.tile(np.arange(4, dtype=np.int32), num_parts)
    ps_suppkey = _suppliers_of_part(ps_partkey, ps_pick, num_suppliers)
    tables["partsupp"] = Table.from_arrays(
        "partsupp",
        {"ps_partkey": ps_partkey,
         "ps_suppkey": ps_suppkey,
         "ps_supplycost": rng.uniform(1.0, 1000.0, size=len(ps_partkey))},
        location=location,
    )

    # orders ---------------------------------------------------------------
    num_orders = counts["orders"]
    o_orderdate_days = rng.integers(0, _ORDER_DATE_SPAN_DAYS - 151,
                                    size=num_orders, dtype=np.int64)
    tables["orders"] = Table(
        "orders",
        [Column("o_orderkey", np.arange(1, num_orders + 1, dtype=np.int32)),
         Column("o_custkey", rng.integers(1, num_customers + 1,
                                          size=num_orders, dtype=np.int32)),
         Column("o_orderdate", _days_to_yyyymmdd(o_orderdate_days), DATE)],
        location=location,
    )

    # lineitem --------------------------------------------------------------
    num_lineitems = counts["lineitem"]
    l_orderkey = rng.integers(1, num_orders + 1, size=num_lineitems,
                              dtype=np.int32)
    l_orderkey.sort()
    order_days_of_line = o_orderdate_days[l_orderkey - 1]
    ship_delay = rng.integers(1, 122, size=num_lineitems, dtype=np.int64)
    ship_days = order_days_of_line + ship_delay
    l_partkey = rng.integers(1, num_parts + 1, size=num_lineitems, dtype=np.int32)
    l_pick = rng.integers(0, 4, size=num_lineitems, dtype=np.int32)
    l_suppkey = _suppliers_of_part(l_partkey, l_pick, num_suppliers)
    l_quantity = rng.integers(1, 51, size=num_lineitems).astype(np.float64)
    l_extendedprice = l_quantity * rng.uniform(900.0, 2000.0, size=num_lineitems)
    l_discount = rng.integers(0, 11, size=num_lineitems) / 100.0
    l_tax = rng.integers(0, 9, size=num_lineitems) / 100.0
    l_shipdate = _days_to_yyyymmdd(ship_days)
    # Return flag / line status per the spec's currentdate = 1995-06-17 rule.
    currentdate = date_to_int("1995-06-17")
    shipped_before_current = l_shipdate <= currentdate
    returnflag = _label_column("l_returnflag", ["A", "R", "N"], np.where(
        shipped_before_current,
        rng.integers(0, 2, size=num_lineitems),  # 0 -> 'A', 1 -> 'R'
        2,                                       # 2 -> 'N'
    ))
    linestatus = _label_column("l_linestatus", ["F", "O"],
                               np.where(shipped_before_current, 0, 1))
    tables["lineitem"] = Table(
        "lineitem",
        [Column("l_orderkey", l_orderkey, INT32),
         Column("l_partkey", l_partkey, INT32),
         Column("l_suppkey", l_suppkey, INT32),
         Column("l_quantity", l_quantity, FLOAT64),
         Column("l_extendedprice", l_extendedprice, FLOAT64),
         Column("l_discount", l_discount, FLOAT64),
         Column("l_tax", l_tax, FLOAT64),
         returnflag,
         linestatus,
         Column("l_shipdate", l_shipdate, DATE)],
        location=location,
    )
    return TPCHDataset(scale_factor=scale_factor, tables=tables)
