"""Replaying a :class:`FaultPlan` against a live topology.

The injector is driven by the server's event loop: the loop puts every
one of its scheduled ``times`` on its event heap when the epoch starts,
``advance`` applies every fault whose time has come (returning the device
failures so the server can kill in-flight attempts), and
``attempt_fault`` is consulted once per execution attempt for
transient/targeted faults.  All randomness comes from one
``numpy`` generator seeded by the plan, consumed in dispatch order — the
same workload replayed against the same plan fails in exactly the same
places.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware import Topology
from .plan import FaultEvent, FaultPlan

#: Per fault kind, the topology methods that strike it (passing the
#: event's factor, except to a failure) and that undo it.
_METHODS = {
    "device_failure": ("fail_device", "restore_device"),
    "link_degradation": ("degrade_link", "restore_link"),
    "memory_shrink": ("shrink_device_memory", "restore_device_memory"),
}


@dataclass(frozen=True)
class InjectedFault:
    """The injector's verdict for one execution attempt.

    ``kind`` is ``"transient"`` (retry in the same mode) or ``"device"``
    (device-scoped: the server walks the failover ladder).  ``fraction``
    is how far into the attempt the failure struck — the fraction of the
    attempt's simulated seconds charged as wasted work.
    """

    kind: str
    fraction: float
    message: str
    device: str | None = None


class FaultInjector:
    """Applies a :class:`FaultPlan` to a topology at server-time boundaries."""

    def __init__(self, plan: FaultPlan, topology: Topology) -> None:
        self.plan = plan
        self.topology = topology
        self._rng = np.random.default_rng(plan.seed)
        # Each event strikes at ``at`` and, when it heals, is undone at
        # ``until``: (time, seq, event, heals) tuples, where seq breaks
        # ties so that application order is deterministic.
        ops: list[tuple[float, int, FaultEvent, bool]] = []
        for event in plan.events:
            ops.append((event.at, len(ops), event, False))
            if event.until is not None:
                ops.append((event.until, len(ops), event, True))
        self._ops = sorted(ops)
        self._cursor = 0
        # The events in force on every (kind, target), oldest first: the
        # newest is what the target shows, and epoch end undoes every
        # target still holding one (faults are epoch-scoped; manual
        # topology mutations made outside the injector persist).
        self._applied: dict[tuple[str, str], list[FaultEvent]] = {}

    # Timeline -----------------------------------------------------------
    @property
    def times(self) -> tuple[float, ...]:
        """Every server time at which a fault strikes or heals, in order
        and without repeats."""
        return tuple(sorted({at for at, *_ in self._ops}))

    def advance(self, now: float) -> list[str]:
        """Apply every op due at or before ``now``.

        Returns the names of devices that *newly failed* during this
        advance so the server can kill attempts running on them.
        """
        newly_failed: list[str] = []
        while self._cursor < len(self._ops):
            at, _seq, event, heals = self._ops[self._cursor]
            if at > now:
                break
            key = (event.kind, event.target)
            in_force = self._applied.setdefault(key, [])
            if heals:   # its own event ends; an overlapping one may not
                in_force.remove(event)
            else:
                if (event.kind == "device_failure"
                        and self.topology.device(event.target).is_available):
                    newly_failed.append(event.target)
                in_force.append(event)
            self._show(*key)
            self._cursor += 1
        return newly_failed

    def _show(self, kind: str, target: str) -> None:
        """Put the newest ``kind`` of fault in force on ``target`` (a
        failure takes no factor), or take that kind off the target when
        none is left."""
        in_force = self._applied[kind, target]
        if in_force:
            args = () if kind == "device_failure" else (in_force[-1].factor,)
            getattr(self.topology, _METHODS[kind][0])(target, *args)
        else:
            del self._applied[kind, target]
            getattr(self.topology, _METHODS[kind][1])(target)

    # Per-attempt faults -------------------------------------------------
    def attempt_fault(self, tenant: str, label: str,
                      attempt: int) -> InjectedFault | None:
        """Fault verdict for one execution attempt (None = clean run).

        Targeted faults are checked first (exact, draw-free); transient
        specs then consume one RNG draw each for every *eligible* attempt,
        so ineligible attempts never perturb the random stream.
        """
        for spec in self.plan.targeted:
            if spec.label == label and spec.attempt == attempt:
                kind = "device" if spec.device is not None else "transient"
                return InjectedFault(kind=kind, fraction=spec.fraction,
                                     message=spec.message, device=spec.device)
        for spec in self.plan.transients:
            if not spec.matches(tenant, label):
                continue
            if self._rng.random() < spec.rate:
                return InjectedFault(
                    kind="transient", fraction=spec.fraction,
                    message=(f"transient fault (seed={self.plan.seed}) on "
                             f"{label!r} attempt {attempt}"))
        return None

    # Epoch teardown -----------------------------------------------------
    def restore_all(self) -> None:
        """Undo every fault this injector applied (end of epoch).

        The serving contract is that injected faults are epoch-scoped:
        after ``run()`` the topology is as healthy as the injector found
        it, even when the plan scheduled no recovery.
        """
        # Kinds sort device failures, then link degradations, then memory
        # shrinks; targets sort by name within a kind.
        for key in sorted(self._applied):
            self._applied[key].clear()
            self._show(*key)
