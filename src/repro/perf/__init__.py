"""Paper-scale performance models for every evaluation figure: Figs. 5-6
replay the join operators' own estimates on closed-form stats records,
Figs. 7-9 are closed-form pipeline models."""

from .join_models import (
    FIGURE5_PARTITION_SIZES,
    FIGURE5_TUPLES,
    FIGURE6_SIZES_MTUPLES,
    FIGURE7_SIZES_MTUPLES,
    JoinModels,
    JoinPoint,
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
    "dense_hash_stats",
    "dense_join_stats",
    "format_headline_claims",
    "format_series",
    "headline_claims",
]
