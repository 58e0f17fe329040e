"""Just-in-time code generation: pipelines and per-device back-ends."""

from .backend import (
    CompiledKernel,
    CPUBackend,
    DeviceProvider,
    GPUBackend,
    provider_for,
)
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
    "CompiledKernel",
    "CPUBackend",
    "DeviceProvider",
    "GPUBackend",
    "Pipeline",
    "break_into_pipelines",
    "fused_chain",
    "is_fused_probe",
    "is_fusion_passthrough",
    "is_pipeline_breaker",
    "pipelines_per_device",
    "provider_for",
    "streams_morsels",
]
