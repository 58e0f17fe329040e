"""Operator descriptions: one class per physical operator kind.

A description states everything the executor needs to know about one
operator, once:

* **placement** — :meth:`Operator.place` maps the devices its input
  arrives on to the devices it runs on (router consumers, crossing
  targets, the anchor CPU of a final aggregate, ...) and
  :meth:`Operator.tuning` names the device values its stats record is
  written with.  Both are read once, when the executor compiles a plan
  (:meth:`~repro.engine.executor.Executor.compile`): a description is a
  piece of a compiled program, kept on the prepared record and run by
  every later execution of the plan;
* **limits** — :meth:`Operator.check` refuses work that cannot be placed
  (the GPU hash-table capacity check) *before* anything is evaluated or
  cached, on every charged execution.  It reads its inputs' sizes —
  ``rows`` and ``nbytes``, written from their records — never a column.
  A limit that needs the data (the co-processed join's co-partition
  bytes) is checked by ``run`` on the record its kernel just wrote, so
  a refused evaluation is never cached and a cache hit needs no check:
  its tuning holds the capacities its miss passed under;
* **evaluation** — streaming operators' :meth:`Operator.begin` returns a
  pure per-morsel transform (a probe's holds the build index it made),
  pipeline breakers and sources give a whole-batch ``run``; exchanges have
  neither and forward their input untouched;
* **charging** — :meth:`Operator.charge` prices the work from the recorded
  stats — once per distinct (stats, input bytes, input residency), kept in
  the description's ``prices`` — and reserves the simulated clocks with
  that price on every execution; :meth:`Operator.advance` moves the batch
  past the operator and records the trace span.

A description holds no batch: what one execution makes — a join's build
batch, its index, columns — is handed to the methods that read it
(``build``) and dropped with the execution.

:meth:`repro.engine.executor.Executor._run` is the one driver that walks
these.  Which nodes stream is *not* restated here: the driver asks
:func:`repro.codegen.pipeline.streams_morsels`, the same predicate
:func:`~repro.codegen.pipeline.fused_chain` is built on.

Adding an operator is one subclass here plus one :data:`OPERATORS` entry.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, NamedTuple, TypeVar

import numpy as np

from ..errors import ExecutionError
from ..hardware.device import Device
from ..hardware.interconnect import Route
from ..hardware.specs import DeviceKind
from ..obs.trace import Span, holders_label
from ..operators.aggregate import (
    estimate_hash_aggregate,
    estimate_merge_partials,
    hash_aggregate_kernel,
    merge_partials_kernel,
)
from ..operators.base import (
    ArrayMap,
    OpCost,
    Rows,
    record_kernel_invocation,
)
from ..operators.coprocess import (
    coprocessed_join_kernel,
    ensure_copartitions_fit,
    price_coprocessed_join,
    reserve_coprocessed_join,
)
from ..operators.filterproject import (
    FilterProjectStats,
    estimate_filter_project,
    filter_project_morsel,
    referenced_columns,
)
from ..operators.gpujoin import (
    ensure_gpu_join_fits,
    estimate_gpu_partitioned_join,
)
from ..operators.hashjoin import (
    HashJoinBuild,
    JoinStats,
    build_table_bytes,
    estimate_non_partitioned_join,
    hash_join_kernel,
)
from ..operators.radix import (
    estimate_cpu_radix_join,
    max_fanout,
    partitioned_join_kernel,
    target_partition_bytes,
)
from ..relational.keys import key_columns
from ..relational.physical import (
    DeviceCrossing,
    JoinAlgorithm,
    MemMove,
    PAggregate,
    PFilterProject,
    PhysicalOp,
    PJoin,
    PScan,
    PSort,
    Router,
)

if TYPE_CHECKING:
    from .executor import Chain, Executor

_Priced = TypeVar("_Priced")
#: Extra fractional cost charged when a pipeline spans CPUs and GPUs,
#: covering packet routing, pinned staging buffers and synchronization.
HYBRID_OVERHEAD = 0.10
#: The same for hybrid pipelines that shuffle join state.
HYBRID_JOIN_OVERHEAD = 0.30
#: A per-morsel body: ``Rows -> (Rows, bytes read)``.
Transform = Callable[[Rows], "tuple[Rows, int]"]


@dataclass(frozen=True)
class Residency:
    """Where a batch lives: memory node -> the fraction of the batch it holds.

    A GPU's memory goes by the GPU's name.  Host memory is one node however
    many CPU sockets read it — it goes by the name it is reached through
    (the table's location, else the first CPU that produced the batch).
    The first holder is the node missing bytes are shipped from; only
    :meth:`repro.engine.executor.Executor.ship` ships any.  A residency is
    replaced, never mutated, so what is derived from it is derived once.
    """

    shares: dict[str, float]

    @classmethod
    def on(cls, node: str) -> "Residency":
        return cls({node: 1.0})

    #: :attr:`~repro.obs.trace.Span.location` of a batch living here,
    #: derived once: a program's prices keep their residencies.
    label = cached_property(lambda self: holders_label(self.shares))
    #: The holders in holder order: a pricing-memo key.
    key = cached_property(lambda self: tuple(self.shares.items()))


#: Where a chain source's input lives: nowhere (a scan reads no batch).
NOWHERE = Residency({})


@dataclass
class NodeResult:
    """An operator's output on its way up the plan.

    Residency and timing are always present; ``columns`` only where the
    batch is materialized (chain sources and boundaries — the stages inside
    a fused chain exist one morsel at a time, so while the charge replay
    walks them the record carries their ``nbytes`` alone).  ``rows`` and
    ``nbytes`` are written from the stats record the batch is charged
    from, the one source of its size.  Where it runs is the compiled
    program's, not the batch's.  Every result has exactly one consumer,
    so operators advance it in place.
    """

    columns: ArrayMap | None
    ready: float
    residency: Residency
    nbytes: int = 0
    rows: int = 0

    def where(self) -> tuple:
        """Bytes and holders, in holder order: what a delivery of this
        batch is priced from."""
        return self.nbytes, self.residency.key


class Price(NamedTuple):
    """One charge, priced: where the batch lives once consumed and, per
    device, ``(device, seconds, route, payload)`` — the seconds it
    computes (its share, for a delivery alone), the route its missing
    share crosses (``None``: nothing crosses) and the bytes that cross.
    """

    residency: Residency
    legs: tuple[tuple[Device, float, Route | None, int], ...]


class Operator:
    """Base description: an exchange-like operator that changes nothing."""

    #: Span name (``Span.op``).
    label = ""
    #: Whether evaluations go through the kernel memo / session cache.
    memoized = True
    #: Results that are views over catalog-resident arrays pin no memory
    #: and are cached at a byte cost of 0.
    zero_copy = False
    #: Whole-batch evaluation of a breaker or source:
    #: ``(input, build) -> (columns, stats)``.
    run = None

    def __init__(self, node: PhysicalOp, executor: "Executor") -> None:
        self.node = node
        # Weak: a program is kept on a session's records, which sit in a
        # reference cycle, and must not keep the executor — its cache and
        # catalog — alive past the session until the cyclic GC runs.
        self.ex = weakref.proxy(executor)
        #: Devices the operator runs on; the compile-time placement pass
        #: fills them in, with the span skeleton: ``slot``, the node's
        #: plan-walk ordinal (a trace's node id, stable across plannings),
        #: and ``device_names``.
        self.devices: list[Device] = []
        #: A join's compiled build side (``None``: the operator has none).
        self.build: "Chain | None" = None
        #: The pricing memo: what :meth:`charge` derived, per key of what
        #: it derived it from (stats, input bytes and residency).
        self.prices: dict = {}

    def place(self, devices: list[Device]) -> list[Device]:
        """The devices the operator runs on, given its input's: the same
        ones, or the anchor CPU for an input on none (a scan)."""
        return devices or [self.ex.topology.anchor_cpu()]

    def tuning(self) -> tuple:
        """The device-spec values the stats record is written with, placed
        (none: the record is device-invariant).  Part of the kernel-memo
        key, so a cached record is only read under the tuning it was
        written with."""
        return ()

    def handoff(self) -> list[Device]:
        """The devices the output is placed on for the parent's placement."""
        return self.devices

    def check(self, batch: NodeResult, build: NodeResult | None) -> None:
        """Raise if the placement cannot hold the operator's state."""

    def begin(self, build: NodeResult | None) -> Transform | None:
        """Set up a cold stream (kernel bookkeeping, build the index) and
        return the per-morsel body, a pure function of the morsel.
        ``None``: an exchange forwards morsels untouched."""
        return None

    def charge(self, batch: NodeResult, stats: object,
               build: NodeResult | None) -> None:
        raise NotImplementedError

    def estimate(self, stats: object, device: Device) -> OpCost:
        """The work of a parallel operator on one device."""
        raise NotImplementedError

    def priced(self, key: object, price: Callable[[], _Priced]) -> _Priced:
        """The price kept under ``key``, made by ``price()`` the first time."""
        found = self.prices.get(key)
        if found is None:
            found = self.prices[key] = price()
        return found

    def charge_parallel(self, batch: NodeResult, stats: object, *,
                        earliest: float, label: str,
                        join_shuffle: bool = False) -> tuple[float, Residency]:
        """Charge :meth:`estimate`'s work over ``batch`` across the
        devices: each device is charged its share from the moment the
        share has arrived.  Returns the time the last device finishes and
        where the output lives.  Priced once per stats record, bytes and
        residency (:meth:`price_parallel`); the clocks are reserved every
        time."""
        price = self.priced((stats, batch.where()), lambda: (
            self.price_parallel(stats, batch, join_shuffle)))
        ready = earliest
        arrivals = self.ex.ship(price, earliest, f"{label}:h2d")
        for (device, seconds, _, _), arrival in zip(price.legs, arrivals):
            record = device.charge(seconds, earliest=arrival, label=label)
            ready = max(ready, record.end)
        return ready, price.residency

    def price_parallel(self, stats: object, batch: NodeResult,
                       join_shuffle: bool) -> Price:
        """The work priced once per participating device kind (on that
        kind's first device), plus the hybrid overhead when the kinds mix;
        each device computes its
        :meth:`~repro.engine.executor.Executor.deliver` share of it."""
        seconds_by_kind: dict = {}
        for device in self.devices:
            if device.kind not in seconds_by_kind:
                seconds_by_kind[device.kind] = self.estimate(stats,
                                                             device).seconds
        overhead = 0.0
        if len(seconds_by_kind) > 1:  # the pipeline spans CPUs and GPUs
            overhead = (HYBRID_JOIN_OVERHEAD if join_shuffle
                        else HYBRID_OVERHEAD)
        residency, legs = self.ex.deliver(batch, self.devices)
        return Price(residency, tuple(
            (device, seconds_by_kind[device.kind] * share * (1.0 + overhead),
             route, payload)
            for device, share, route, payload in legs))

    def advance(self, batch: NodeResult, ready: float, *,
                start: float | None = None,
                residency: Residency | None = None,
                **attrs: object) -> None:
        """Record the span and move ``batch`` past this operator, into
        ``residency`` when the operator moved or re-split it.

        Only ever called from :meth:`charge`, in canonical plan order, so
        the span list is byte-identical across replays.  The skeleton is
        compiled; the span is
        completed here from what this execution recorded before charging:
        the node's actual rows and its kernel's cache status.  The span is
        immutable, its ``attrs`` a read-only view of this call's keywords.
        """
        ex = self.ex
        spans = ex._trace_spans
        if spans is not None:
            node_id = self.node.node_id
            cache, morsels = ex._trace_kernel.get(node_id, (None, None))
            # Positional, in field order: a span is made per operator and
            # execution, and keywords triple what its construction costs.
            spans.append(Span(
                self.slot, self.label, batch.ready if start is None else start,
                ready, self.device_names, batch.residency.label,
                int(batch.nbytes), ex._node_rows.get(node_id),
                self.node.est_rows, cache, morsels, MappingProxyType(attrs)))
        batch.ready = ready
        if residency is not None:
            batch.residency = residency


# ----------------------------------------------------------------------
# Source
# ----------------------------------------------------------------------
class Scan(Operator):
    label = "scan"
    zero_copy = True

    def place(self, devices: list[Device]) -> list[Device]:
        self.residency = Residency.on(
            self.ex.catalog.table(self.node.table).location)
        return super().place(devices)

    def run(self, batch: NodeResult, build: None) -> tuple[ArrayMap, int]:
        table = self.ex.catalog.table(self.node.table)
        names = self.node.columns if self.node.columns else table.column_names
        columns = {name: table.array(name) for name in names}
        return columns, Rows.of(columns).nbytes()

    def charge(self, batch: NodeResult, nbytes: int, build: None) -> None:
        batch.residency = self.residency
        batch.nbytes = nbytes
        self.advance(batch, 0.0, table=self.node.table)


# ----------------------------------------------------------------------
# Exchanges: never inspect tuple payloads, so a morsel stream flows
# straight through; they only charge control / transfer cost.
# ----------------------------------------------------------------------
class RouterOp(Operator):
    label = "router"
    memoized = False

    def place(self, devices: list[Device]) -> list[Device]:
        self.anchor = self.ex.topology.anchor_cpu()
        if self.node.consumers:
            return [self.ex.topology.device(name)
                    for name in self.node.consumers]
        return devices

    def charge(self, batch: NodeResult, stats: object, build: None) -> None:
        # Routing decisions are packet-metadata only; charge a token
        # control cost on the CPU that hosts the router.
        record = self.anchor.charge(
            1e-6 * max(len(self.devices), 1), earliest=batch.ready,
            label="router")
        self.advance(batch, record.end)


class MemMoveOp(Operator):
    label = "mem-move"
    memoized = False

    def place(self, devices: list[Device]) -> list[Device]:
        names = [name.strip() for name in self.node.destination.split(",")
                 if name.strip()]
        if not names:
            raise ExecutionError("mem-move needs at least one destination")
        self.destinations = [self.ex.topology.device(name) for name in names]
        return devices

    def charge(self, batch: NodeResult, stats: object, build: None) -> None:
        price = self.priced(batch.where(), lambda: self.ex.deliver(
            batch, self.destinations, whole=self.node.broadcast))
        self.advance(batch, max(self.ex.ship(price, batch.ready, "mem-move")),
                     residency=price.residency,
                     destination=price.residency.label,
                     broadcast=self.node.broadcast)


class DeviceCrossingOp(Operator):
    label = "device-crossing"
    memoized = False

    def place(self, devices: list[Device]) -> list[Device]:
        kind = self.node.target_kind
        targets = [device for device in self.ex.topology.devices
                   if device.kind is kind and device.is_available]
        if not targets:
            raise ExecutionError(
                f"no available devices of kind {kind.value} in the topology")
        return targets

    def charge(self, batch: NodeResult, stats: object, build: None) -> None:
        ready = batch.ready
        for device in self.devices:
            record = device.charge(device.cost.kernel_launch() or 1e-6,
                                   earliest=batch.ready,
                                   label="device-crossing")
            ready = max(ready, record.end)
        self.advance(batch, ready, target_kind=self.node.target_kind.value)


# ----------------------------------------------------------------------
# Relational operators
# ----------------------------------------------------------------------
class FilterProject(Operator):
    """Streaming filter/project.

    Input rows and touched bytes are additive over morsels, so the
    accumulated :class:`FilterProjectStats` is bit-identical to a
    standalone :func:`~repro.operators.filter_project_kernel` evaluation.
    """

    label = "filter-project"

    def __init__(self, node: PFilterProject, executor: "Executor") -> None:
        super().__init__(node, executor)
        self.referenced = referenced_columns(node.predicate, node.projections)

    def begin(self, build: None) -> Transform:
        record_kernel_invocation("filter_project")
        return self.transform

    def transform(self, batch: Rows) -> tuple[Rows, int]:
        return (filter_project_morsel(batch, predicate=self.node.predicate,
                                      projections=self.node.projections),
                batch.nbytes(self.referenced))

    def stats(self, build: None, in_rows: int, in_bytes: int,
              out_nbytes: int) -> FilterProjectStats:
        return FilterProjectStats(num_rows=in_rows, touched_bytes=in_bytes)

    def estimate(self, stats: FilterProjectStats, device: Device) -> OpCost:
        # The functional kernel is device-invariant: it ran once, and the
        # identical work is priced per participating device kind.
        return estimate_filter_project(stats, device,
                                       predicate=self.node.predicate,
                                       projections=self.node.projections)

    def charge(self, batch: NodeResult, stats: FilterProjectStats,
               build: None) -> None:
        ready, residency = self.charge_parallel(
            batch, stats, earliest=batch.ready, label=self.label)
        self.advance(batch, ready, residency=residency)


class Aggregate(Operator):
    """Hash aggregation: partial (on the input's devices), or final /
    complete (on the anchor CPU)."""

    label = "aggregate"

    def place(self, devices: list[Device]) -> list[Device]:
        if self.node.phase == "partial":
            return super().place(devices)
        return [self.ex.topology.anchor_cpu()]

    def run(self, batch: NodeResult, build: None) -> tuple[ArrayMap, object]:
        node = self.node
        if node.phase == "final":
            return merge_partials_kernel([batch.columns],
                                         group_by=node.group_by,
                                         aggregates=node.aggregates)
        self.ex.grant(batch.rows)
        return hash_aggregate_kernel(
            batch.columns, group_by=node.group_by,
            aggregates=node.aggregates, phase=node.phase)

    def estimate(self, stats: object, device: Device) -> OpCost:
        if self.node.phase == "final":  # stats = merged partial bytes
            return estimate_merge_partials(stats, device)
        return estimate_hash_aggregate(stats, device,
                                       aggregates=self.node.aggregates)

    def charge(self, batch: NodeResult, stats: object, build: None) -> None:
        phase = self.node.phase
        ready, residency = self.charge_parallel(
            batch, stats, earliest=batch.ready, label=f"aggregate-{phase}")
        self.advance(batch, ready, residency=residency, phase=phase)


class Sort(Operator):
    label = "sort"
    memoized = False

    def place(self, devices: list[Device]) -> list[Device]:
        return [self.ex.topology.anchor_cpu()]

    def run(self, batch: NodeResult, build: None) -> tuple[ArrayMap, None]:
        order = np.lexsort(
            key_columns(batch.columns, self.node.keys)[::-1])
        return {name: np.asarray(values)[order]
                for name, values in batch.columns.items()}, None

    def charge(self, batch: NodeResult, stats: object, build: None) -> None:
        cpu = self.devices[0]
        record = cpu.charge(cpu.cost.seq_scan(batch.nbytes) * 2,
                            earliest=batch.ready, label="sort")
        self.advance(batch, record.end, residency=Residency.on(cpu.name))


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
def join_order(node: PJoin) -> str:
    """Canonical output order of a join node.

    Every join emits rows in the reference executor's order — by
    logical-right position, ties by logical-left position.  That is
    probe-major when the probe side is the logical right input and
    build-major when the optimizer swapped the sides.
    """
    return "build" if node.swapped else "probe"


def partition_tuning(spec) -> tuple:
    """The spec values that shape a partitioned join's pass structure.

    Two same-model devices share these values (and therefore kernel
    evaluations) even though their spec objects differ.
    """
    return (spec.kind.value, max_fanout(spec), target_partition_bytes(spec))


class Join(Operator):
    """Shared by every join: the build side is a breaker, executed (and
    charged) before the probe input."""

    #: ``estimate_*`` function pricing the join from its stats on a device.
    estimator = None
    #: A partitioned join co-partitions its build side, so a device needs
    #: only its share of it; a non-partitioned one needs all of it.
    copartitions_build = False

    def estimate(self, stats: object, device: Device) -> OpCost:
        return self.estimator(stats, device)

    def charge(self, batch: NodeResult, stats, build: NodeResult) -> None:
        # The build goes to the GPUs that probe it: all of it to each for a
        # non-partitioned join, its share of the co-partitions to each for
        # a partitioned one.  In the plans this optimizer emits a build is
        # host-resident or — for the partitioned GPU join in GPU-only mode
        # — already split across the GPUs that join it, where nothing is
        # shipped; GPU capacity is enforced by ``check``.
        earliest = max(build.ready, batch.ready)
        broadcast = self.priced(("build", build.where()), lambda: (
            self.ex.deliver(build, [d for d in self.devices if d.is_gpu],
                            whole=not self.copartitions_build)))
        ready_build = max([earliest, *self.ex.ship(broadcast, earliest,
                                                   "broadcast-build")])
        ready, residency = self.charge_parallel(
            batch, stats, earliest=ready_build, label=self.label,
            join_shuffle=True)
        self.advance(batch, ready, start=earliest, residency=residency,
                     build_rows=stats.build_rows, probe_rows=stats.probe_rows)


class HashJoin(Join):
    """Non-partitioned hash join on whatever devices the probe pipeline
    uses.

    The probe streams: cold runs build the join index once in
    :meth:`begin` and then match one probe morsel at a time.  Because the
    match list is ordered by probe position, the streamed outputs
    concatenate to exactly the whole-column join and the accumulated
    :class:`JoinStats` equals :func:`~repro.operators.hash_join_kernel`'s
    record.  The index is read-only once built.  A *swapped* join's build-major order cannot be
    emitted as a probe-order stream; it :meth:`run`\\ s whole.
    """

    label = "hash-join"
    estimator = staticmethod(estimate_non_partitioned_join)

    def check(self, batch: NodeResult, build: NodeResult) -> None:
        # The global hash table an oversized build would allocate (the Q9
        # failure mode) is refused before anything streams or is cached.
        for device in self.devices:
            if device.is_gpu:
                device.ensure_fits(build_table_bytes(build.rows))
                break

    def begin(self, build: NodeResult) -> Transform:
        record_kernel_invocation("hash_join")
        self.ex.grant(build.rows)
        builder = HashJoinBuild(build.columns,
                                build_keys=self.node.build_keys)
        probe_keys = self.node.probe_keys
        return lambda batch: (builder.probe(batch, probe_keys=probe_keys),
                              batch.nbytes())

    def stats(self, build: NodeResult, in_rows: int, in_bytes: int,
              out_nbytes: int) -> JoinStats:
        return JoinStats(build_rows=build.rows, probe_rows=in_rows,
                         build_nbytes=build.nbytes,
                         probe_nbytes=in_bytes, output_nbytes=out_nbytes)

    def run(self, batch: NodeResult,
            build: NodeResult) -> tuple[ArrayMap, JoinStats]:
        self.ex.grant(build.rows, batch.rows)
        return hash_join_kernel(
            build.columns, batch.columns,
            build_keys=self.node.build_keys, probe_keys=self.node.probe_keys,
            output_order=join_order(self.node))


#: The single-device partitioned joins differ only in these three values
#: (and in the tuning their device's spec hands the one kernel).
_RADIX_VARIANTS = {
    JoinAlgorithm.RADIX_CPU: (DeviceKind.CPU, estimate_cpu_radix_join,
                              "radix-join-cpu"),
    JoinAlgorithm.RADIX_GPU: (DeviceKind.GPU, estimate_gpu_partitioned_join,
                              "radix-join-gpu"),
}


class RadixJoin(Join):
    """Partitioned join on the CPUs or the GPUs of the probe pipeline.

    The algorithm it is charged for partitions both inputs whole, so it
    needs them whole (a breaker).
    """

    copartitions_build = True

    def __init__(self, node: PJoin, executor: "Executor") -> None:
        super().__init__(node, executor)
        self.kind, self.estimator, self.label = _RADIX_VARIANTS[node.algorithm]

    def place(self, devices: list[Device]) -> list[Device]:
        self.input_devices = super().place(devices)
        everywhere = [device for device in self.ex.topology.devices
                      if device.kind is self.kind]
        return ([d for d in self.input_devices if d.kind is self.kind]
                or [d for d in everywhere if d.is_available] or everywhere)

    def tuning(self) -> tuple:
        return ("radix", partition_tuning(self.devices[0].spec))

    def handoff(self) -> list[Device]:
        # The GPU join hands its input's placement on to its parent.
        return (self.input_devices if self.kind is DeviceKind.GPU
                else self.devices)

    def check(self, batch: NodeResult, build: NodeResult) -> None:
        if self.kind is DeviceKind.GPU:
            ensure_gpu_join_fits(build.nbytes + batch.nbytes,
                                 self.devices[0])

    def run(self, batch: NodeResult,
            build: NodeResult) -> tuple[ArrayMap, object]:
        self.ex.grant(build.rows, batch.rows)
        return partitioned_join_kernel(
            build.columns, batch.columns,
            build_keys=self.node.build_keys, probe_keys=self.node.probe_keys,
            spec=self.devices[0].spec, output_order=join_order(self.node))


class CoprocessedJoin(Join):
    """CPU+GPU co-processed radix join: every available CPU socket
    co-partitions, the GPUs join the co-partitions.

    Its cost is a timeline over several devices, not one device's
    :class:`~repro.operators.base.OpCost`, so :meth:`charge` prices the
    stats record once with
    :func:`~repro.operators.coprocess.price_coprocessed_join` and replays
    the steps through
    :func:`~repro.operators.coprocess.reserve_coprocessed_join` instead of
    :meth:`Operator.charge_parallel`.
    """

    label = "coprocessed-join"

    def place(self, devices: list[Device]) -> list[Device]:
        topology = self.ex.topology
        self.cpus, self.gpus = (topology.available_cpus(),
                                topology.available_gpus())
        if not self.gpus:
            raise ExecutionError("co-processed join requires GPUs")
        return [*self.cpus, *self.gpus]

    def tuning(self) -> tuple:
        # The GPUs' capacities set the co-partition fan-out.
        return ("coprocessed",
                tuple(partition_tuning(gpu.spec) for gpu in self.gpus),
                tuple(gpu.spec.memory_capacity_bytes for gpu in self.gpus))

    def run(self, batch: NodeResult,
            build: NodeResult) -> tuple[ArrayMap, object]:
        self.ex.grant(build.rows, batch.rows)
        # Sized from the record, before the memo keeps it: a refusal
        # caches nothing, and a hit's tuning holds the capacities passed.
        columns, stats = coprocessed_join_kernel(
            build.columns, batch.columns, build_keys=self.node.build_keys,
            probe_keys=self.node.probe_keys,
            gpu_specs=[gpu.spec for gpu in self.gpus],
            output_order=join_order(self.node))
        ensure_copartitions_fit(stats, self.gpus)
        return columns, stats

    def charge(self, batch: NodeResult, stats, build: NodeResult) -> None:
        earliest = max(build.ready, batch.ready)
        _, steps = self.priced(stats, lambda: price_coprocessed_join(
            stats, self.ex.topology, self.cpus, self.gpus))
        finished = reserve_coprocessed_join(steps, self.cpus,
                                            earliest=earliest)
        self.advance(batch, finished, start=earliest,
                     residency=Residency.on(self.cpus[0].name),
                     build_rows=stats.build_rows,
                     probe_rows=stats.probe_rows)


#: The one node-type dispatch: physical node type (join algorithm for
#: joins) -> operator description.
OPERATORS: dict[object, type[Operator]] = {
    PScan: Scan,
    Router: RouterOp,
    MemMove: MemMoveOp,
    DeviceCrossing: DeviceCrossingOp,
    PFilterProject: FilterProject,
    PAggregate: Aggregate,
    PSort: Sort,
    JoinAlgorithm.NON_PARTITIONED: HashJoin,
    JoinAlgorithm.RADIX_CPU: RadixJoin,
    JoinAlgorithm.RADIX_GPU: RadixJoin,
    JoinAlgorithm.COPROCESSED_RADIX: CoprocessedJoin,
}


def description(node: PhysicalOp) -> type[Operator]:
    """The description class that runs ``node``."""
    try:
        return OPERATORS[getattr(node, "algorithm", type(node))]
    except KeyError:
        raise ExecutionError(
            f"executor cannot run {type(node).__name__}") from None
