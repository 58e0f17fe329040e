"""Open-loop arrival sources for the query server.

A drain-style server (everything submitted before ``run()``) models a
closed loop: new work only appears when the operator hands it over.  The
paper's serving scenario is open-loop — queries arrive on their own
schedule, indifferent to how busy the server is — so the server accepts
*arrival sources*: iterables of :class:`Arrival` entries ordered by
arrival time on the server's **simulated** clock.  When ``run()`` starts,
the event loop puts every entry of every registered source on its event
heap and calls :meth:`~repro.server.server.QueryServer.submit` at exactly
each entry's ``at`` time, which makes live submission (``submit()`` while
``run()`` is draining) a first-class, deterministic part of the epoch.

Two workload generators cover the bench suites:

* :func:`poisson_arrivals` — memoryless inter-arrival gaps from a seeded
  :func:`numpy.random.default_rng`, the canonical open-loop load model.
  Same seed → bit-identical arrival times → bit-identical epochs.
* :func:`trace_arrivals` — replay an explicit ``(at, plan)`` trace, for
  recorded workloads and for expressing drain-style submission (every
  ``at`` = 0) through the open-loop path.

Determinism contract: sources are plain data by the time ``run()`` sees
them.  A generator is drained eagerly at registration so that a source's
length and timestamps cannot depend on execution order; randomness must
come from the caller's seeded RNG, never from wall clock or global state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..errors import ServingError

__all__ = ["Arrival", "ArrivalSource", "poisson_arrivals", "trace_arrivals"]


@dataclass(frozen=True)
class Arrival:
    """One scheduled submission: who submits what, and when.

    ``plan`` may be the logical plan itself or a zero-argument callable
    returning one — resolved at submit time, so a source can defer plan
    construction.  ``label``/``deadline`` pass straight through to
    ``submit``; ``label=None`` lets the server assign its default label.
    """

    at: float
    tenant: str
    plan: Any
    mode: str = "hybrid"
    label: str | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.at < 0.0:
            raise ValueError("arrival time cannot be negative")

    def resolve_plan(self) -> Any:
        """The logical plan, building it now if the source deferred it."""
        return self.plan() if callable(self.plan) else self.plan


class ArrivalSource:
    """A named, time-ordered stream of arrivals.

    Arrivals due at one instant are submitted source by source in
    registration order, and in sequence within a source.  Construction
    validates that the stream is sorted by ``at`` — an out-of-order stream
    would make the submit order depend on delivery timing instead of data.
    A source is plain data: the same one can seed any number of epochs.
    """

    def __init__(self, name: str, arrivals: Iterable[Arrival]) -> None:
        self.name = str(name)
        self.arrivals = tuple(arrivals)
        previous = 0.0
        for arrival in self.arrivals:
            if not isinstance(arrival, Arrival):
                raise ServingError(
                    f"arrival source {self.name!r} yielded "
                    f"{type(arrival).__name__}, expected Arrival")
            if arrival.at < previous:
                raise ServingError(
                    f"arrival source {self.name!r} is not time-ordered: "
                    f"{arrival.at} after {previous}")
            previous = arrival.at

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self) -> Iterator[Arrival]:
        return iter(self.arrivals)


def poisson_arrivals(tenant: str, plans: Sequence[Any], *, rate_qps: float,
                     count: int, seed: int, mode: str = "hybrid",
                     start: float = 0.0,
                     deadline: float | None = None) -> ArrivalSource:
    """A seeded Poisson process of ``count`` arrivals for one tenant.

    Inter-arrival gaps are exponential with mean ``1 / rate_qps`` drawn
    from ``numpy.random.default_rng(seed)``; the ``i``-th arrival cycles
    through ``plans`` round-robin.  Deterministic: the same (seed, rate,
    count) triple always produces bit-identical timestamps.
    """
    if rate_qps <= 0.0:
        raise ValueError("rate_qps must be positive")
    if count < 0:
        raise ValueError("count cannot be negative")
    if start < 0.0:
        raise ValueError("start cannot be negative")
    if count and not plans:
        raise ValueError("poisson_arrivals needs at least one plan")
    rng = np.random.default_rng(seed)
    at = float(start)
    entries = []
    for index in range(count):
        at += float(rng.exponential(1.0 / rate_qps))
        entries.append(Arrival(at=at, tenant=tenant,
                               plan=plans[index % len(plans)], mode=mode,
                               label=f"{tenant}-p{index + 1}",
                               deadline=deadline))
    return ArrivalSource(f"poisson:{tenant}:{seed}", entries)


def trace_arrivals(tenant: str, trace: Iterable[tuple], *,
                   mode: str = "hybrid",
                   deadline: float | None = None) -> ArrivalSource:
    """Replay an explicit trace of ``(at, plan)`` or ``(at, plan, mode)``.

    Entries must be ordered by ``at`` (nondecreasing).  A trace with every
    ``at`` = 0 expresses drain-style submission through the open-loop
    path — the provable special case the property tests pin down.
    """
    entries = []
    for index, entry in enumerate(trace):
        if len(entry) == 2:
            at, plan = entry
            entry_mode = mode
        elif len(entry) == 3:
            at, plan, entry_mode = entry
        else:
            raise ServingError(
                "trace entries must be (at, plan) or (at, plan, mode)")
        entries.append(Arrival(at=float(at), tenant=tenant, plan=plan,
                               mode=entry_mode,
                               label=f"{tenant}-t{index + 1}",
                               deadline=deadline))
    return ArrivalSource(f"trace:{tenant}", entries)
