"""Heterogeneity-aware query optimizer.

The optimizer lowers a device-agnostic logical plan into a physical plan in
which every relational operator carries its traits (device type, degree of
parallelism, locality, packing) and all trait conversions are explicit
HetExchange operators — router above every scan for parallelism, mem-move +
device-crossing on the GPU paths, gather routers before final aggregation.
Join algorithms are selected per device exactly along the lines of
Section 4.1/5: cache-or-TLB-conscious radix joins on CPUs, scratchpad-
conscious partitioned joins in GPUs, the co-processed radix join when the
inputs exceed GPU memory, and non-partitioned joins for small build sides.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DeviceUnavailableError, OptimizerError, PlanError
from ..hardware.specs import DeviceKind
from ..hardware.topology import Topology
from ..operators.hashjoin import HASH_ENTRY_BYTES
from ..relational.expr import AggregateSpec
from ..relational.logical import (
    Aggregate,
    Filter,
    Join,
    LogicalPlan,
    OrderBy,
    Project,
    Scan,
)
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
    RoutingPolicy,
)
from ..relational.traits import Packing, Traits
from ..stats.cardinality import CardinalityEstimator, RelationEstimate
from ..storage.catalog import Catalog
from .modes import ExecutionMode

#: One plan's estimates: ``CardinalityEstimator.estimate_nodes``' record.
Estimates = dict[int, RelationEstimate]

#: Minimum estimated bytes shipped to the accelerator for a GPU-resident
#: plan to amortize the PCIe crossing; below it auto mode stays on CPUs.
GPU_OFFLOAD_MIN_BYTES = 32 << 20


@dataclass(frozen=True)
class OptimizerOptions:
    """Optimizer knobs exposed to the benchmarks and ablations."""

    small_build_rows: int = 2_000_000
    #: When true (the default) row estimates come from the catalog's
    #: per-column statistics (:mod:`repro.stats`); when false the legacy
    #: base-bytes heuristic with ``FILTER_SELECTIVITY`` is used.  Either
    #: way the chosen plan computes identical results — the knob exists
    #: for ablations and the fuzzer's stats-on/off axis.
    use_statistics: bool = True


class Optimizer:
    """Lowers logical plans into heterogeneity-aware physical plans."""

    def __init__(self, topology: Topology, catalog: Catalog,
                 options: OptimizerOptions | None = None) -> None:
        self.topology = topology
        self.catalog = catalog
        self.options = options or OptimizerOptions()
        self.estimator = CardinalityEstimator(catalog)

    # ------------------------------------------------------------------
    def optimize(self, plan: LogicalPlan,
                 mode: ExecutionMode | str = ExecutionMode.HYBRID) -> PhysicalOp:
        """Produce the physical plan for the requested engine configuration."""
        mode = ExecutionMode.parse(mode)
        if mode.uses_gpus and not self.topology.gpus():
            raise OptimizerError(
                f"mode {mode.value!r} requires GPUs but the topology has none"
            )
        # Structural absence (no GPUs built into the server) stays an
        # OptimizerError; *health-based* absence — every device of a
        # required kind currently FAILED — is a fault the serving layer
        # can fail over from, so it gets the fault taxonomy.
        if mode.uses_gpus and not self.topology.available_gpus():
            raise DeviceUnavailableError(
                "gpu", f"mode {mode.value!r} requires a healthy GPU")
        if mode.uses_cpus and not self.topology.available_cpus():
            raise DeviceUnavailableError(
                "cpu", f"mode {mode.value!r} requires a healthy CPU")
        for table in sorted(plan.referenced_tables()):
            self.catalog.table(table)  # CatalogError before anything lowers
        # The plan is estimated once per call; every join choice below
        # and every stamp on the physical plan reads this record.
        return self._convert(plan, mode, self.estimator.estimate_nodes(plan))

    # ------------------------------------------------------------------
    def _devices_for(self, mode: ExecutionMode) -> list[str]:
        # Only healthy/degraded devices participate: a failed GPU must not
        # appear in router consumer lists or crossing targets, so plans
        # built under partial failure use the surviving parallelism.
        devices: list[str] = []
        if mode.uses_cpus:
            devices.extend(
                device.name for device in self.topology.available_cpus())
        if mode.uses_gpus:
            devices.extend(
                device.name for device in self.topology.available_gpus())
        return devices

    def _worker_traits(self, mode: ExecutionMode, locality: str) -> Traits:
        device_kind = DeviceKind.GPU if mode is ExecutionMode.GPU_ONLY else DeviceKind.CPU
        return Traits(
            device=device_kind,
            parallelism=max(len(self._devices_for(mode)), 1),
            locality=locality,
            packing=Packing.PACKET,
        )

    #: Legacy per-filter selectivity, used only with
    #: ``use_statistics=False`` (or when a predicate does not resolve
    #: against statistics and the estimator cannot back an estimate).
    FILTER_SELECTIVITY = 0.3

    def _side_rows(self, plan: LogicalPlan,
                   estimates: Estimates) -> tuple[int, bool]:
        """Rows of one join input plus whether catalog statistics back them."""
        estimate = estimates[id(plan)]
        if self.options.use_statistics and estimate.backed:
            return max(estimate.num_rows, 1), True
        return self._heuristic_rows(plan), False

    def _heuristic_rows(self, plan: LogicalPlan) -> int:
        """Row estimate: largest base table underneath, discounted by filters."""
        base = max(self.catalog.stats(table).num_rows
                   for table in plan.referenced_tables())
        filters = sum(1 for node in plan.walk() if isinstance(node, Filter))
        return max(int(base * (self.FILTER_SELECTIVITY ** filters)), 1)

    # ------------------------------------------------------------------
    def choose_mode(self, plan: LogicalPlan,
                    idle_kind: DeviceKind | None = None) -> ExecutionMode:
        """Resolve ``"auto"``: pick cpu/gpu/hybrid from estimated work.

        The decision follows the paper's premise that placement should be
        chosen from estimated bytes moved per device: only one surviving
        device kind forces that kind, plans whose estimated working set
        cannot fit the accelerator co-process (hybrid), plans too small
        to amortize the PCIe crossing stay on CPUs, everything else
        offloads.  Without statistics-backed estimates the hedge is
        hybrid — both device kinds contribute and nothing is refused on a
        guess.  A server shares its devices between queries, so it passes
        ``idle_kind`` — the device kind its occupancy board reports least
        loaded — and a working set that fits lands there instead.
        """
        gpus = self.topology.available_gpus()
        if not gpus:
            return ExecutionMode.CPU_ONLY
        if not self.topology.available_cpus():
            return ExecutionMode.GPU_ONLY
        working_set = self.estimator.working_set(plan)
        if not (self.options.use_statistics and working_set.backed):
            return ExecutionMode.HYBRID
        gpu_capacity = min(gpu.spec.memory_capacity_bytes for gpu in gpus)
        if (working_set.largest_build_bytes * 4 >= gpu_capacity
                or working_set.total_bytes * 2 >= gpu_capacity):
            return ExecutionMode.HYBRID
        if idle_kind is None:
            moved = self._estimated_scan_bytes(plan)
            idle_kind = (DeviceKind.CPU if moved < GPU_OFFLOAD_MIN_BYTES
                         else DeviceKind.GPU)
        return (ExecutionMode.CPU_ONLY if idle_kind is DeviceKind.CPU
                else ExecutionMode.GPU_ONLY)

    def _estimated_scan_bytes(self, plan: LogicalPlan) -> int:
        """Bytes a GPU-resident plan ships over PCIe: the scanned columns."""
        total = 0
        for node in plan.walk():
            if not isinstance(node, Scan) or node.table not in self.catalog:
                continue
            statistics = self.catalog.statistics(node.table)
            names = node.columns if node.columns else tuple(statistics.columns)
            for name in names:
                column = statistics.column(name)
                total += column.nbytes if column is not None else 0
        return total

    # ------------------------------------------------------------------
    # Lowering.  ``estimates`` is the plan's one estimation pass; every
    # relational node is stamped with the rows of the logical operator it
    # came from (a merged filter/project: its topmost one).
    # ------------------------------------------------------------------
    def _convert(self, plan: LogicalPlan, mode: ExecutionMode,
                 estimates: Estimates) -> PhysicalOp:
        if isinstance(plan, Scan):
            return self._convert_scan(plan, mode, estimates)
        if isinstance(plan, Filter):
            return self._convert_filter(plan, mode, estimates)
        if isinstance(plan, Project):
            return self._convert_project(plan, mode, estimates)
        if isinstance(plan, Join):
            return self._convert_join(plan, mode, estimates)
        if isinstance(plan, Aggregate):
            return self._convert_aggregate(plan, mode, estimates)
        if isinstance(plan, OrderBy):
            child = self._convert(plan.child, mode, estimates)
            return PSort(traits=Traits(device=DeviceKind.CPU, parallelism=1),
                         child=child, keys=plan.keys,
                         est_rows=estimates[id(plan)].rows)
        raise PlanError(f"optimizer cannot lower {type(plan).__name__}")

    def _convert_scan(self, plan: Scan, mode: ExecutionMode,
                      estimates: Estimates) -> PhysicalOp:
        table = self.catalog.table(plan.table)
        scan_traits = Traits(device=DeviceKind.CPU, parallelism=1,
                             locality=table.location)
        scan_op: PhysicalOp = PScan(traits=scan_traits, table=plan.table,
                                    columns=plan.columns,
                                    est_rows=estimates[id(plan)].rows)
        consumers = tuple(self._devices_for(mode))
        router_traits = scan_traits.with_parallelism(max(len(consumers), 1))
        routed: PhysicalOp = Router(traits=router_traits, child=scan_op,
                                    consumers=consumers)
        if mode is ExecutionMode.GPU_ONLY:
            gpu_names = [d.name for d in self.topology.available_gpus()]
            moved = MemMove(traits=router_traits.with_locality("gpu"),
                            child=routed, destination=",".join(gpu_names))
            routed = DeviceCrossing(
                traits=router_traits.with_device(DeviceKind.GPU),
                child=moved, target_kind=DeviceKind.GPU)
        return routed

    def _convert_filter(self, plan: Filter, mode: ExecutionMode,
                        estimates: Estimates) -> PhysicalOp:
        child = self._convert(plan.child, mode, estimates)
        # Merging into an existing fused filter/project is only legal when
        # the child carries no projections: the fused kernel applies the
        # predicate *before* the projections, so a filter sitting above a
        # projection (which may reference computed aliases or drop
        # columns) must stay its own operator.
        if not (isinstance(child, PFilterProject) and child.predicate is None
                and not child.projections):
            traits = self._worker_traits(mode, locality=child.traits.locality)
            child = PFilterProject(traits=traits, child=child)
        child.predicate = plan.predicate
        child.est_rows = estimates[id(plan)].rows
        return child

    def _convert_project(self, plan: Project, mode: ExecutionMode,
                         estimates: Estimates) -> PhysicalOp:
        child = self._convert(plan.child, mode, estimates)
        if not (isinstance(child, PFilterProject) and not child.projections):
            traits = self._worker_traits(mode, locality=child.traits.locality)
            child = PFilterProject(traits=traits, child=child)
        child.projections = dict(plan.projections)
        child.est_rows = estimates[id(plan)].rows
        return child

    # ------------------------------------------------------------------
    def _choose_join_algorithm(self, build_rows: int, probe_rows: int,
                               mode: ExecutionMode, *,
                               backed: bool = True) -> JoinAlgorithm:
        build_bytes = build_rows * HASH_ENTRY_BYTES
        if mode is ExecutionMode.CPU_ONLY:
            cpu = self.topology.available_cpus()[0]
            if (build_rows > self.options.small_build_rows
                    or build_bytes > cpu.spec.last_level_cache.capacity_bytes):
                return JoinAlgorithm.RADIX_CPU
            return JoinAlgorithm.NON_PARTITIONED
        gpus = self.topology.available_gpus()
        gpu_capacity = min(gpu.spec.memory_capacity_bytes for gpu in gpus)
        # Leave room for the probe stream, partitions and the result buffers.
        fits_in_gpu = build_bytes * 4 < gpu_capacity
        if mode is ExecutionMode.GPU_ONLY:
            if not fits_in_gpu:
                # Refuse only on statistics-backed estimates.  A guessed
                # build size is not grounds to reject the plan: if the
                # true build genuinely overflows, the executor's GPU
                # memory enforcement raises at run time and the serving
                # layer's fault ladder degrades the mode.
                if backed:
                    raise OptimizerError(
                        "GPU-only execution impossible: the join build side "
                        f"({build_bytes} bytes of hash tables) exceeds GPU "
                        "memory"
                    )
                return JoinAlgorithm.RADIX_GPU
            if build_rows > self.options.small_build_rows:
                return JoinAlgorithm.RADIX_GPU
            return JoinAlgorithm.NON_PARTITIONED
        # Hybrid: co-process when the inputs exceed the accelerator memory.
        if not fits_in_gpu or build_rows > 4 * self.options.small_build_rows:
            return JoinAlgorithm.COPROCESSED_RADIX
        if build_rows > self.options.small_build_rows:
            return JoinAlgorithm.RADIX_GPU
        return JoinAlgorithm.NON_PARTITIONED

    def _convert_join(self, plan: Join, mode: ExecutionMode,
                      estimates: Estimates) -> PhysicalOp:
        left_rows, left_backed = self._side_rows(plan.left, estimates)
        right_rows, right_backed = self._side_rows(plan.right, estimates)
        # The smaller input becomes the build side.  ``swapped`` records
        # when that is the logical *right* input, so the join kernels can
        # emit the canonical (reference-identical) output row order no
        # matter which side was picked.
        swapped = left_rows > right_rows
        if not swapped:
            build_plan, probe_plan = plan.left, plan.right
            build_keys, probe_keys = plan.left_keys, plan.right_keys
            build_rows, probe_rows = left_rows, right_rows
            build_backed = left_backed
        else:
            build_plan, probe_plan = plan.right, plan.left
            build_keys, probe_keys = plan.right_keys, plan.left_keys
            build_rows, probe_rows = right_rows, left_rows
            build_backed = right_backed
        # With use_statistics off the legacy contract holds: heuristic
        # estimates keep refusing oversized GPU-only builds at plan time.
        refuse_on_overflow = (build_backed
                              or not self.options.use_statistics)
        algorithm = self._choose_join_algorithm(build_rows, probe_rows, mode,
                                                backed=refuse_on_overflow)
        # Build sides are produced by CPU pipelines (dimension tables live in
        # CPU memory); the join itself runs wherever the probe pipeline runs.
        build_mode = (ExecutionMode.CPU_ONLY
                      if algorithm is not JoinAlgorithm.RADIX_GPU
                      or mode is not ExecutionMode.GPU_ONLY else mode)
        build = self._convert(build_plan, build_mode, estimates)
        probe = self._convert(probe_plan, mode, estimates)
        traits = self._worker_traits(mode, locality=probe.traits.locality)
        return PJoin(traits=traits, build=build, probe=probe,
                     build_keys=tuple(build_keys), probe_keys=tuple(probe_keys),
                     algorithm=algorithm, swapped=swapped,
                     est_rows=estimates[id(plan)].rows)

    def _convert_aggregate(self, plan: Aggregate, mode: ExecutionMode,
                           estimates: Estimates) -> PhysicalOp:
        child = self._convert(plan.child, mode, estimates)
        worker_traits = self._worker_traits(mode, locality=child.traits.locality)
        # Both phases produce the logical aggregate's groups.
        rows = estimates[id(plan)].rows
        partial = PAggregate(traits=worker_traits, child=child,
                             group_by=plan.group_by,
                             aggregates=plan.aggregates, phase="partial",
                             est_rows=rows)
        anchor = self.topology.anchor_cpu().name
        gather_traits = Traits(device=DeviceKind.CPU, parallelism=1,
                               locality=anchor)
        gather = Router(traits=gather_traits, child=partial,
                        policy=RoutingPolicy.ROUND_ROBIN, consumers=(anchor,))
        crossing: PhysicalOp = gather
        if mode is ExecutionMode.GPU_ONLY:
            crossing = DeviceCrossing(traits=gather_traits, child=gather,
                                      target_kind=DeviceKind.CPU)
        return PAggregate(traits=gather_traits, child=crossing,
                          group_by=plan.group_by, aggregates=plan.aggregates,
                          phase="final", est_rows=rows)
