"""HAPE engine: optimizer, executor, query cache and the engine facade."""

from .executor import Executor, ExecutorOptions
from .modes import ExecutionMode
from .optimizer import Optimizer, OptimizerOptions
from .querycache import (
    DEFAULT_CACHE_BUDGET_BYTES,
    CacheCounters,
    QueryCache,
    QueryCacheStats,
)
from .session import HAPEEngine, QueryResult, Session

__all__ = [
    "CacheCounters",
    "DEFAULT_CACHE_BUDGET_BYTES",
    "ExecutionMode",
    "Executor",
    "ExecutorOptions",
    "HAPEEngine",
    "Optimizer",
    "OptimizerOptions",
    "QueryCache",
    "QueryCacheStats",
    "QueryResult",
    "Session",
]
