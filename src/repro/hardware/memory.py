"""Per-device memory pools with capacity enforcement.

The paper's evaluation repeatedly relies on capacity limits: the in-GPU join
only works up to 128 M tuples per table (Figure 6), DBMS G "is not designed
for out-of-GPU datasets" (Figure 7) and neither GPU-only system can run Q9
(Figure 8).  The :class:`MemoryPool` makes those limits explicit — an
allocation that does not fit raises :class:`OutOfDeviceMemoryError` instead
of silently succeeding.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from ..errors import OutOfDeviceMemoryError

_allocation_ids = itertools.count()


@dataclass
class Allocation:
    """A live allocation inside a :class:`MemoryPool`."""

    pool: "MemoryPool"
    nbytes: int
    label: str
    allocation_id: int = field(default_factory=lambda: next(_allocation_ids))
    freed: bool = False

    def free(self) -> None:
        """Release the allocation back to its pool (idempotent)."""
        if not self.freed:
            self.pool._release(self)
            self.freed = True

    def __enter__(self) -> "Allocation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.free()


class _PoolState:
    """Per-thread usage ledger of one :class:`MemoryPool`."""

    __slots__ = ("used_bytes", "live", "peak_bytes")

    def __init__(self) -> None:
        self.used_bytes = 0
        self.live: dict[int, Allocation] = {}
        self.peak_bytes = 0


class MemoryPool:
    """Tracks used/free bytes of one memory node (DRAM socket or GPU).

    The usage ledger is **thread-local**: the engine's transient
    capacity-check allocations always free on the thread that made them,
    and concurrent per-tenant query executions (server worker threads)
    each simulate the device memory as if they ran alone — which is what
    keeps their OOM behavior and peak accounting bit-identical to solo
    runs.  The capacity itself is shared (fault injection shrinking a
    device is visible to every thread).
    """

    def __init__(self, owner: str, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("memory pool needs a positive capacity")
        self.owner = owner
        self.capacity_bytes = int(capacity_bytes)
        self._local = threading.local()

    def _state(self) -> _PoolState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _PoolState()
            self._local.state = state
        return state

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MemoryPool({self.owner!r}, used={self.used_bytes}, "
            f"capacity={self.capacity_bytes})"
        )

    @property
    def used_bytes(self) -> int:
        return self._state().used_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    @property
    def peak_bytes(self) -> int:
        """High-water mark of concurrent usage."""
        return self._state().peak_bytes

    def can_fit(self, nbytes: int) -> bool:
        """Whether ``nbytes`` could currently be allocated."""
        return int(nbytes) <= self.free_bytes

    def allocate(self, nbytes: int, label: str = "buffer") -> Allocation:
        """Reserve ``nbytes``; raises when the pool would overflow."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("cannot allocate a negative number of bytes")
        state = self._state()
        if nbytes > self.capacity_bytes - state.used_bytes:
            raise OutOfDeviceMemoryError(
                self.owner, nbytes, self.capacity_bytes - state.used_bytes)
        allocation = Allocation(pool=self, nbytes=nbytes, label=label)
        state.live[allocation.allocation_id] = allocation
        state.used_bytes += nbytes
        state.peak_bytes = max(state.peak_bytes, state.used_bytes)
        return allocation

    def _release(self, allocation: Allocation) -> None:
        state = self._state()
        if allocation.allocation_id in state.live:
            del state.live[allocation.allocation_id]
            state.used_bytes -= allocation.nbytes

    def resize(self, capacity_bytes: int) -> None:
        """Change the pool capacity in place (fault injection: memory loss).

        Live allocations are kept even if they now exceed the capacity —
        subsequent allocations simply see a negative ``free_bytes`` and
        fail, which is how a real allocator behaves when memory is taken
        away underneath it.
        """
        capacity_bytes = int(capacity_bytes)
        if capacity_bytes <= 0:
            raise ValueError("memory pool needs a positive capacity")
        self.capacity_bytes = capacity_bytes

    def release_all(self) -> None:
        """Free every live allocation (used between benchmark repetitions).

        Thread-local like the ledger: each thread releases its own
        allocations (an execute's reset cannot drop another tenant's).
        """
        for allocation in list(self._state().live.values()):
            allocation.free()

    def utilization(self) -> float:
        """Fraction of the capacity currently in use."""
        return self.used_bytes / self.capacity_bytes
