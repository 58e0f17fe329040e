"""Pipelines: where a physical plan breaks, streams and fuses.

Descriptive only — the executor reads :func:`streams_morsels` and
:func:`fused_chain` to split its work, ``explain`` and the pipeline counts
read :class:`Pipeline`.  Nothing is generated or compiled: expressions are
interpreted by ``Expr.evaluate``.
"""

from .pipeline import (
    Pipeline,
    break_into_pipelines,
    fused_chain,
    is_fused_probe,
    is_fusion_passthrough,
    is_pipeline_breaker,
    pipelines_per_device,
    streams_morsels,
)

__all__ = [
    "Pipeline",
    "break_into_pipelines",
    "fused_chain",
    "is_fused_probe",
    "is_fusion_passthrough",
    "is_pipeline_breaker",
    "pipelines_per_device",
    "streams_morsels",
]
