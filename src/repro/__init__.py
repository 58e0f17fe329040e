"""HAPE reproduction: hardware-conscious query processing on a simulated
multi-CPU multi-GPU analytical engine.

Reproduces "Hardware-conscious Query Processing in GPU-accelerated
Analytical Engines" (Chrysogelos, Sioulas, Ailamaki — CIDR 2019).

The public entry points most users need:

* :func:`repro.hardware.default_server` — build the simulated testbed.
* :class:`repro.engine.HAPEEngine` — plan and execute queries on
  CPU-only, GPU-only or hybrid configurations.
* :mod:`repro.workloads` — the join microbenchmarks and TPC-H queries used
  by the paper's evaluation.
* :mod:`repro.perf` — analytic estimators that regenerate every figure at
  paper scale.
"""

from . import errors
from .hardware import DeviceKind, Topology, default_server

__version__ = "1.0.0"

__all__ = [
    "DeviceKind",
    "Topology",
    "default_server",
    "errors",
    "__version__",
]
