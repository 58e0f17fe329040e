"""Operator descriptions: one class per physical operator kind.

A description states everything the executor needs to know about one
operator, once:

* **placement** — :meth:`Operator.place` maps the devices its input
  arrives on to the devices it runs on (router consumers, crossing
  targets, the anchor CPU of a final aggregate, ...);
* **limits** — :meth:`Operator.check` refuses work that cannot be placed
  (the GPU hash-table capacity check) *before* anything is evaluated or
  cached;
* **evaluation** — streaming operators give a pure per-morsel
  ``transform`` (plus ``begin`` / ``stats`` around the stream), pipeline
  breakers and sources a whole-batch ``run``; exchanges have neither and
  forward their input untouched;
* **charging** — :meth:`Operator.charge` prices the work on the simulated
  clocks from the recorded stats alone and :meth:`Operator.advance`\\ s the
  batch past the operator, recording the trace span with the attributes
  the operator carries.

:meth:`repro.engine.executor.Executor._execute` is the one driver that
walks these.  Which nodes stream is *not* restated here: the driver asks
:func:`repro.codegen.pipeline.streams_morsels`, the same predicate
:func:`~repro.codegen.pipeline.fused_chain` is built on.

Adding an operator is one subclass here plus one :data:`OPERATORS` entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ExecutionError
from ..hardware.device import Device
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
    columns_nbytes,
    columns_num_rows,
    record_kernel_invocation,
)
from ..operators.coprocess import (
    charge_coprocessed_join,
    copartition_nbytes,
    coprocessed_join_kernel,
    ensure_copartitions_fit,
)
from ..operators.filterproject import (
    FilterProjectStats,
    estimate_filter_project,
    filter_project_morsel,
    referenced_columns,
    touched_bytes,
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
    from .executor import Executor


@dataclass(frozen=True)
class Residency:
    """Where a batch lives: memory node -> the fraction of the batch it holds.

    A GPU's memory goes by the GPU's name.  Host memory is one node however
    many CPU sockets read it — it goes by the name it is reached through
    (the table's location, else the first CPU that produced the batch).
    The first holder is the node missing bytes are shipped from; only
    :meth:`repro.engine.executor.Executor.deliver` ships any.
    """

    shares: dict[str, float]

    @classmethod
    def on(cls, node: str) -> "Residency":
        return cls({node: 1.0})


@dataclass
class NodeResult:
    """An operator's output on its way up the plan.

    Placement, residency and timing are always present; ``columns`` only
    where the batch is materialized (chain sources and boundaries — the
    stages inside a fused chain exist one morsel at a time, so while the
    charge replay walks them the record carries their ``nbytes`` alone).
    Every result has exactly one consumer, so operators advance it in
    place.
    """

    columns: ArrayMap | None
    ready: float
    residency: Residency
    devices: list[Device]
    #: Device-spec-derived tuning knobs baked into the row order of this
    #: subtree's columns (partition plans of radix joins).  Parents fold the
    #: tag into their kernel memo key so two structurally equal subplans
    #: only share an evaluation when their row order provably matches.
    kernel_tag: tuple = ()
    nbytes: int = 0

    @property
    def num_rows(self) -> int:
        return columns_num_rows(self.columns)


class Operator:
    """Base description: an exchange-like operator that changes nothing."""

    #: Span name (``Span.op``).
    label = ""
    #: Whether evaluations go through the kernel memo / session cache.
    memoized = True
    #: Results that are views over catalog-resident arrays pin no memory
    #: and are cached at a byte cost of 0.
    zero_copy = False
    #: Per-morsel body of a streaming operator: ``batch -> (out, bytes
    #: read)``.  Pure, so worker threads may run morsels concurrently.
    transform = None
    #: Whole-batch evaluation of a breaker or source:
    #: ``input -> (columns, stats)``.
    run = None

    def __init__(self, node: PhysicalOp, executor: "Executor") -> None:
        self.node = node
        self.ex = executor
        #: Devices the operator runs on and the kernel tag of its output;
        #: the driver's placement pass fills both in before evaluation.
        self.devices: list[Device] = []
        self.kernel_tag: tuple = ()

    def place(self, devices: list[Device]) -> list[Device]:
        return devices

    def tag(self, tag: tuple) -> tuple:
        return tag

    def check(self, batch: NodeResult) -> None:
        """Raise if the placement cannot hold the operator's state."""

    def begin(self) -> None:
        """Set up a cold stream (kernel bookkeeping, build the index)."""

    def charge(self, batch: NodeResult, stats: object) -> None:
        raise NotImplementedError

    def advance(self, batch: NodeResult, ready: float, *,
                start: float | None = None,
                residency: Residency | None = None,
                **attrs: object) -> None:
        """Record the span and move ``batch`` past this operator, into
        ``residency`` when the operator moved or re-split it.

        Only ever called from :meth:`charge` — on the query thread, in
        canonical plan order — so the span list is byte-identical at
        every worker count.
        """
        spans = self.ex._trace_spans
        if spans is not None:
            spans.append(Span(
                node_id=self.node.node_id, op=self.label,
                start=batch.ready if start is None else start, end=ready,
                devices=tuple(device.name for device in self.devices),
                location=holders_label(batch.residency.shares),
                input_bytes=int(batch.nbytes),
                est_rows=self.node.est_rows, attrs=attrs))
        batch.ready = ready
        batch.devices = self.devices
        batch.kernel_tag = self.kernel_tag
        if residency is not None:
            batch.residency = residency


# ----------------------------------------------------------------------
# Source
# ----------------------------------------------------------------------
class Scan(Operator):
    label = "scan"
    zero_copy = True

    def place(self, devices: list[Device]) -> list[Device]:
        return self.ex.default_devices()

    def run(self, batch: NodeResult) -> tuple[ArrayMap, int]:
        table = self.ex.catalog.table(self.node.table)
        names = self.node.columns if self.node.columns else table.column_names
        columns = {name: table.array(name) for name in names}
        return columns, columns_nbytes(columns)

    def charge(self, batch: NodeResult, nbytes: int) -> None:
        batch.residency = Residency.on(
            self.ex.catalog.table(self.node.table).location)
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
        if self.node.consumers:
            return [self.ex.topology.device(name)
                    for name in self.node.consumers]
        return devices

    def charge(self, batch: NodeResult, stats: object) -> None:
        # Routing decisions are packet-metadata only; charge a token
        # control cost on the CPU that hosts the router.
        record = self.ex.topology.anchor_cpu().charge(
            1e-6 * max(len(self.devices), 1), earliest=batch.ready,
            label="router")
        self.advance(batch, record.end)


class MemMoveOp(Operator):
    label = "mem-move"
    memoized = False

    def charge(self, batch: NodeResult, stats: object) -> None:
        destinations = [name.strip()
                        for name in self.node.destination.split(",")
                        if name.strip()]
        if not destinations:
            raise ExecutionError("mem-move needs at least one destination")
        residency, arrivals = self.ex.deliver(
            batch, [self.ex.topology.device(name) for name in destinations],
            earliest=batch.ready, label="mem-move", whole=self.node.broadcast)
        self.advance(batch, max(arrival for _, _, arrival in arrivals),
                     residency=residency,
                     destination=holders_label(residency.shares),
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

    def charge(self, batch: NodeResult, stats: object) -> None:
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

    def place(self, devices: list[Device]) -> list[Device]:
        return devices or self.ex.default_devices()

    def begin(self) -> None:
        record_kernel_invocation("filter_project")
        self.referenced = referenced_columns(self.node.predicate,
                                             self.node.projections)

    def transform(self, batch: ArrayMap) -> tuple[ArrayMap, int]:
        return (filter_project_morsel(batch, predicate=self.node.predicate,
                                      projections=self.node.projections),
                touched_bytes(batch, self.referenced))

    def stats(self, in_rows: int, in_bytes: int,
              out_nbytes: int) -> FilterProjectStats:
        return FilterProjectStats(num_rows=in_rows, touched_bytes=in_bytes)

    def charge(self, batch: NodeResult, stats: FilterProjectStats) -> None:
        # The functional kernel is device-invariant: it ran once, and the
        # identical work is priced per participating device kind.
        ready, residency = self.ex.charge_parallel(
            self.devices, lambda device: estimate_filter_project(
                stats, device, predicate=self.node.predicate,
                projections=self.node.projections),
            batch, earliest=batch.ready, label=self.label)
        self.advance(batch, ready, residency=residency)


class Aggregate(Operator):
    """Hash aggregation: partial (on the input's devices), or final /
    complete (on the anchor CPU)."""

    label = "aggregate"

    def place(self, devices: list[Device]) -> list[Device]:
        if self.node.phase == "partial":
            return devices or self.ex.default_devices()
        return [self.ex.topology.anchor_cpu()]

    def run(self, batch: NodeResult) -> tuple[ArrayMap, object]:
        node = self.node
        if node.phase == "final":
            return merge_partials_kernel([batch.columns],
                                         group_by=node.group_by,
                                         aggregates=node.aggregates)
        self.ex.scheduler.grant(batch.num_rows)
        return hash_aggregate_kernel(
            batch.columns, group_by=node.group_by,
            aggregates=node.aggregates, phase=node.phase)

    def charge(self, batch: NodeResult, stats: object) -> None:
        phase = self.node.phase
        if phase == "final":  # stats = merged partial bytes
            def estimate(device):
                return estimate_merge_partials(stats, device)
        else:
            def estimate(device):
                return estimate_hash_aggregate(
                    stats, device, aggregates=self.node.aggregates)
        ready, residency = self.ex.charge_parallel(
            self.devices, estimate, batch, earliest=batch.ready,
            label=f"aggregate-{phase}")
        self.advance(batch, ready, residency=residency, phase=phase)


class Sort(Operator):
    label = "sort"
    memoized = False

    def place(self, devices: list[Device]) -> list[Device]:
        return [self.ex.topology.anchor_cpu()]

    def run(self, batch: NodeResult) -> tuple[ArrayMap, None]:
        order = np.lexsort(
            key_columns(batch.columns, self.node.keys)[::-1])
        return {name: np.asarray(values)[order]
                for name, values in batch.columns.items()}, None

    def charge(self, batch: NodeResult, stats: object) -> None:
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
    charged) when the description is created — before the probe input."""

    #: ``estimate_*`` function pricing the join from its stats on a device.
    estimator = None
    #: A partitioned join co-partitions its build side, so a device needs
    #: only its share of it; a non-partitioned one needs all of it.
    copartitions_build = False

    def __init__(self, node: PJoin, executor: "Executor") -> None:
        super().__init__(node, executor)
        self.build = executor._execute(node.build)

    def tag(self, tag: tuple) -> tuple:
        return self.build.kernel_tag + tag

    def charge(self, batch: NodeResult, stats) -> None:
        earliest = max(self.build.ready, batch.ready)
        ready_build = self.ex.broadcast_build(
            self.build, [d for d in self.devices if d.is_gpu], earliest,
            whole=not self.copartitions_build)
        ready, residency = self.ex.charge_parallel(
            self.devices, lambda device: self.estimator(stats, device), batch,
            earliest=ready_build, label=self.label, join_shuffle=True)
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
    record.  After :meth:`begin` the index is read-only, so
    :meth:`transform` is safe on worker threads.  A *swapped* join's
    build-major order cannot be emitted as a probe-order stream; it
    :meth:`run`\\ s whole.
    """

    label = "hash-join"
    estimator = staticmethod(estimate_non_partitioned_join)

    def place(self, devices: list[Device]) -> list[Device]:
        return devices or self.ex.default_devices()

    def check(self, batch: NodeResult) -> None:
        # The global hash table an oversized build would allocate (the Q9
        # failure mode) is refused before anything streams or is cached.
        for device in self.devices:
            if device.is_gpu:
                device.allocate(build_table_bytes(self.build.num_rows),
                                label="join hash table").free()
                break

    def begin(self) -> None:
        record_kernel_invocation("hash_join")
        self.ex.scheduler.grant(self.build.num_rows)
        self.builder = HashJoinBuild(self.build.columns,
                                     build_keys=self.node.build_keys)

    def transform(self, batch: ArrayMap) -> tuple[ArrayMap, int]:
        return (self.builder.probe(batch, probe_keys=self.node.probe_keys),
                columns_nbytes(batch))

    def stats(self, in_rows: int, in_bytes: int,
              out_nbytes: int) -> JoinStats:
        return JoinStats(build_rows=self.build.num_rows, probe_rows=in_rows,
                         build_nbytes=self.build.nbytes,
                         probe_nbytes=in_bytes, output_nbytes=out_nbytes)

    def run(self, batch: NodeResult) -> tuple[ArrayMap, JoinStats]:
        self.ex.scheduler.grant(self.build.num_rows, batch.num_rows)
        return hash_join_kernel(
            self.build.columns, batch.columns,
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

    Both inputs are re-ordered, so it needs them whole (a breaker).
    """

    copartitions_build = True

    def __init__(self, node: PJoin, executor: "Executor") -> None:
        super().__init__(node, executor)
        self.kind, self.estimator, self.label = _RADIX_VARIANTS[node.algorithm]

    def place(self, devices: list[Device]) -> list[Device]:
        self.input_devices = devices or self.ex.default_devices()
        everywhere = [device for device in self.ex.topology.devices
                      if device.kind is self.kind]
        return ([d for d in self.input_devices if d.kind is self.kind]
                or [d for d in everywhere if d.is_available] or everywhere)

    def tag(self, tag: tuple) -> tuple:
        return super().tag(tag) + (
            ("radix", partition_tuning(self.devices[0].spec)),)

    def check(self, batch: NodeResult) -> None:
        if self.kind is DeviceKind.GPU:
            ensure_gpu_join_fits(self.build.columns, batch.columns,
                                 self.devices[0])

    def run(self, batch: NodeResult) -> tuple[ArrayMap, object]:
        self.ex.scheduler.grant(self.build.num_rows, batch.num_rows)
        return partitioned_join_kernel(
            self.build.columns, batch.columns,
            build_keys=self.node.build_keys, probe_keys=self.node.probe_keys,
            spec=self.devices[0].spec, output_order=join_order(self.node))

    def charge(self, batch: NodeResult, stats) -> None:
        super().charge(batch, stats)
        if self.kind is DeviceKind.GPU:
            # The GPU join hands its input's placement on to its parent.
            batch.devices = self.input_devices


class CoprocessedJoin(Join):
    """CPU+GPU co-processed radix join: the anchor CPU co-partitions, the
    GPUs join the co-partitions.

    Its cost is a timeline over several devices, not one device's
    :class:`~repro.operators.base.OpCost`, so :meth:`charge` replays the
    stats record through
    :func:`~repro.operators.coprocess.charge_coprocessed_join` instead of
    :meth:`~repro.engine.executor.Executor.charge_parallel`.
    """

    label = "coprocessed-join"

    def place(self, devices: list[Device]) -> list[Device]:
        gpus = self.ex.topology.available_gpus()
        if not gpus:
            raise ExecutionError("co-processed join requires GPUs")
        return [self.ex.topology.anchor_cpu(), *gpus]

    def tag(self, tag: tuple) -> tuple:
        gpus = self.devices[1:]
        return super().tag(tag) + (
            ("coprocessed",
             tuple(partition_tuning(gpu.spec) for gpu in gpus),
             tuple(gpu.spec.memory_capacity_bytes for gpu in gpus)),)

    def _on_inputs(self, function, batch: NodeResult, **extra):
        return function(self.build.columns, batch.columns,
                        build_keys=self.node.build_keys,
                        probe_keys=self.node.probe_keys,
                        gpu_specs=[gpu.spec for gpu in self.devices[1:]],
                        **extra)

    def check(self, batch: NodeResult) -> None:
        # Sized from bucket counts, so a cached evaluation is refused too.
        ensure_copartitions_fit(self._on_inputs(copartition_nbytes, batch),
                                self.devices[1:])

    def run(self, batch: NodeResult) -> tuple[ArrayMap, object]:
        return self._on_inputs(coprocessed_join_kernel, batch,
                               output_order=join_order(self.node))

    def charge(self, batch: NodeResult, stats) -> None:
        earliest = max(self.build.ready, batch.ready)
        _, finished = charge_coprocessed_join(
            stats, self.ex.topology, self.devices[0], self.devices[1:])
        self.advance(batch, max(earliest, finished), start=earliest,
                     residency=Residency.on(self.devices[0].name),
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
