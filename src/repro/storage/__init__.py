"""Columnar storage substrate: columns, tables, catalog, morsels, data gen."""

from .morsel import (
    DEFAULT_MORSEL_ROWS,
    concat_columns,
    iter_morsels,
    morsel_count,
)
from .catalog import Catalog
from .column import Column
from .datagen import (
    JoinWorkload,
    MICROBENCH_TUPLE_BYTES,
    make_join_pair,
    make_join_relation,
    make_partial_match_pair,
    make_skewed_relation,
)
from .dtypes import (
    BOOL,
    DATE,
    DICT32,
    DataType,
    Dictionary,
    FLOAT32,
    FLOAT64,
    INT32,
    INT64,
    date_to_int,
    int_to_date,
    year_of,
)
from .table import Table
from .tpch import (
    BASE_CARDINALITIES,
    NATIONS,
    REGIONS,
    TPCHDataset,
    generate_tpch,
    tpch_cardinalities,
)

__all__ = [
    "BASE_CARDINALITIES",
    "BOOL",
    "Catalog",
    "Column",
    "DATE",
    "DEFAULT_MORSEL_ROWS",
    "DICT32",
    "DataType",
    "Dictionary",
    "FLOAT32",
    "FLOAT64",
    "INT32",
    "INT64",
    "JoinWorkload",
    "MICROBENCH_TUPLE_BYTES",
    "NATIONS",
    "REGIONS",
    "TPCHDataset",
    "Table",
    "concat_columns",
    "date_to_int",
    "generate_tpch",
    "int_to_date",
    "iter_morsels",
    "make_join_pair",
    "make_join_relation",
    "make_partial_match_pair",
    "make_skewed_relation",
    "morsel_count",
    "tpch_cardinalities",
    "year_of",
]
