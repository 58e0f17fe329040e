"""Paper-scale performance models for every evaluation figure: Figs. 5-7
replay the join operators' own estimates (Fig. 7: the co-processed join's
own timeline) on closed-form stats records, Figs. 8-9 are closed-form
pipeline models of Proteus.  DBMS C and DBMS G are priced by their one
model each in :mod:`repro.baselines`: ``join_seconds`` for Figs. 6-7,
``query_seconds`` over Proteus' own CPU-only / GPU-only bars for Fig. 8."""

from .join_models import (
    FIGURE5_PARTITION_SIZES,
    FIGURE5_TUPLES,
    FIGURE6_SIZES_MTUPLES,
    FIGURE7_SIZES_MTUPLES,
    JoinModels,
    JoinPoint,
    dense_coprocessed_stats,
    dense_hash_stats,
    dense_join_stats,
)
from .report import HeadlineClaim, format_headline_claims, format_series, headline_claims
from .tpch_models import (
    FIGURE8_SYSTEMS,
    PAPER_SCALE_FACTOR,
    QueryEstimate,
    TPCHModels,
)

__all__ = [
    "FIGURE5_PARTITION_SIZES",
    "FIGURE5_TUPLES",
    "FIGURE6_SIZES_MTUPLES",
    "FIGURE7_SIZES_MTUPLES",
    "FIGURE8_SYSTEMS",
    "HeadlineClaim",
    "JoinModels",
    "JoinPoint",
    "PAPER_SCALE_FACTOR",
    "QueryEstimate",
    "TPCHModels",
    "dense_coprocessed_stats",
    "dense_hash_stats",
    "dense_join_stats",
    "format_headline_claims",
    "format_series",
    "headline_claims",
]
