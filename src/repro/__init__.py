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

Importing the package pins glibc's malloc thresholds for the whole process
(``HEAP_KEPT`` says whether it could; see "Host memory" in
``docs/ARCHITECTURE.md``).
"""

import ctypes

from . import errors
from .hardware import DeviceKind, Topology, default_server

__version__ = "1.0.0"

#: Arrays below this come from the heap, not a fresh ``mmap``: glibc's
#: 64-bit maximum, and setting it switches the dynamic threshold off.
M_MMAP_THRESHOLD = 32 << 20
#: Freed heap top glibc keeps before returning it to the kernel.
M_TRIM_THRESHOLD = 256 << 20


def _keep_heap() -> bool:
    """Pin both thresholds through libc's ``mallopt``, so a kernel's large
    temporaries reuse resident heap instead of faulting in fresh zero
    pages on every execution.  ``False``, and nothing set, where libc
    cannot be loaded or has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    # malloc.h: M_MMAP_THRESHOLD is -3, M_TRIM_THRESHOLD is -1.
    return bool(mallopt(-3, M_MMAP_THRESHOLD)
                and mallopt(-1, M_TRIM_THRESHOLD))


HEAP_KEPT = _keep_heap()

__all__ = [
    "HEAP_KEPT",
    "DeviceKind",
    "Topology",
    "default_server",
    "errors",
    "__version__",
]
