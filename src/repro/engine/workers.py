"""Worker pools: true multicore execution with a determinism contract.

The engine's data-parallel work — morsels streamed through a fused chain,
admitted queries of *different* tenants inside
:class:`repro.server.server.QueryServer` — is pure NumPy kernels that
release the GIL, so plain threads scale it across cores.  What must NOT
scale with it is any *observable* quantity: tables, simulated seconds,
``device_busy``, ``link_bytes`` and cache counters have to stay bit-identical
at every worker count.

The contract that guarantees this (see ``docs/ARCHITECTURE.md``):

* Worker threads run **only pure functional work** (``transform`` a
  batch).  Each unit returns its output *plus* an integer
  contribution record instead of mutating shared stage state.
* The driving thread submits units in canonical plan/morsel order and
  :meth:`WorkerPool.map_ordered` returns results in **submission order**,
  never completion order.  All merging — concatenating batches, absorbing
  stat contributions, charging simulated-time ledgers — happens on the
  driving thread in that canonical order.

``workers=1`` (the default) does not create any threads: every unit runs
inline on the calling thread, byte-for-byte the old single-threaded code
path.  ``workers="auto"`` resolves to the machine's CPU count, and the
``REPRO_WORKERS`` environment variable supplies the default when no knob
is set (how CI sweeps worker counts without touching call sites).

Pools are shared process-wide, keyed by ``(tier, thread-count)``:

* ``"kernel"`` tier — leaf work (morsel transforms); never submits
  further pool work.
* ``"server"`` tier — per-tenant query execution inside ``QueryServer``;
  may *wait* on kernel-tier work but never on server-tier work.

The two tiers use distinct executors, so a server task blocking on kernel
futures cannot deadlock against the pool it runs in, and a test suite
creating hundreds of engines reuses a bounded set of threads.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable consulted when no explicit ``workers`` knob is set.
WORKERS_ENV = "REPRO_WORKERS"

#: Pool tiers (see module docstring): kernel work is a leaf, server work
#: may block on kernel work.  Keeping them in separate executors makes the
#: wait graph acyclic by construction.
POOL_TIERS = ("kernel", "server")


def available_cpus() -> int:
    """CPU count this process may use (never less than 1)."""
    return max(int(os.cpu_count() or 1), 1)


def default_workers() -> int:
    """Worker count when no knob is set: ``REPRO_WORKERS`` or 1."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or not raw.strip():
        return 1
    return resolve_workers(raw.strip())


def resolve_workers(workers: int | str | None) -> int:
    """Validate a ``workers`` knob value and resolve it to a concrete count.

    ``None`` defers to :func:`default_workers` (the ``REPRO_WORKERS``
    environment variable, else 1); ``"auto"`` means the machine's CPU
    count; integers must be >= 1.  Anything else raises ``ValueError``.
    """
    if workers is None:
        return default_workers()
    if isinstance(workers, str):
        if workers == "auto":
            return available_cpus()
        try:
            workers = int(workers)
        except ValueError:
            raise ValueError(
                f"workers must be a positive int or 'auto', got {workers!r}"
            ) from None
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(
            f"workers must be a positive int or 'auto', got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


# ----------------------------------------------------------------------
# Shared executors
# ----------------------------------------------------------------------
_REGISTRY_LOCK = threading.Lock()
_EXECUTORS: dict[tuple[str, int], ThreadPoolExecutor] = {}


def _shared_executor(tier: str, threads: int) -> ThreadPoolExecutor:
    """Process-wide executor for ``(tier, threads)``, created on demand."""
    key = (tier, threads)
    with _REGISTRY_LOCK:
        executor = _EXECUTORS.get(key)
        if executor is None:
            executor = ThreadPoolExecutor(
                max_workers=threads,
                thread_name_prefix=f"repro-{tier}-{threads}")
            _EXECUTORS[key] = executor
        return executor


class WorkerPool:
    """A fixed-width thread pool with an ordered-merge contract.

    ``map_ordered`` is the only way work enters the pool: results come
    back in submission order, so callers absorb them deterministically no
    matter which thread finished first.  With ``workers == 1`` (or a
    single item) everything runs inline on the calling thread — no
    threads, no futures, the exact pre-pool code path.
    """

    __slots__ = ("workers", "tier")

    def __init__(self, workers: int | str | None = 1, *,
                 tier: str = "kernel") -> None:
        if tier not in POOL_TIERS:
            raise ValueError(
                f"tier must be one of {POOL_TIERS}, got {tier!r}")
        self.workers = resolve_workers(workers)
        self.tier = tier

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WorkerPool(workers={self.workers}, tier={self.tier!r})"

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def map_ordered(self, fn: Callable[[_T], _R],
                    items: Sequence[_T]) -> list[_R]:
        """Apply ``fn`` to every item; results in *item* order.

        ``fn`` must be pure with respect to shared state — it runs on an
        arbitrary pool thread.  Exceptions propagate to the caller (the
        first failing item's exception, in item order).
        """
        items = list(items)
        if not self.parallel or len(items) <= 1:
            return [fn(item) for item in items]
        executor = _shared_executor(self.tier, self.workers)
        futures = [executor.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def chunks(self, count: int) -> list[range]:
        """Split ``range(count)`` into at most ``workers`` contiguous runs.

        Used to bound per-item submission overhead: a morsel stream of
        thousands of tiny batches becomes ``workers`` contiguous chunks,
        each processed serially inside one pool task.  Chunk order is
        item order, so concatenating chunk results preserves it.
        """
        if count <= 0:
            return []
        width = max(-(-count // self.workers), 1)
        return [range(start, min(start + width, count))
                for start in range(0, count, width)]
