"""Executor: runs physical plans on the simulated heterogeneous server.

The executor interprets the trait-annotated physical DAG produced by the
optimizer.  Functional results are computed with the executable operator
*kernels* of :mod:`repro.operators` — exactly once per plan node — while the
per-device ``estimate_*`` cost functions price the same work on every
device kind that participates; simulated time is produced by
list-scheduling those costs onto the clocks of the devices each operator's
description places it on (``Operator.place``: a router's consumers, else
the devices of the operator below — ``traits`` are never read here), and
every cross-device byte is charged to the interconnect link it crosses.
The makespan of the resulting timeline is the "execution time" the
evaluation figures report.

Because kernels are device-invariant, their results are additionally
memoized by the structural key of the subplan that produced them — and the
memo lives for the whole *session*, not one query: the executor owns a
:class:`~repro.engine.querycache.QueryCache` that retains kernel results
across :meth:`Executor.execute` calls, keyed by catalog-versioned
structural keys, bounded by an LRU byte budget
(``ExecutorOptions.cache_budget_bytes``) and invalidated exactly when the
catalog replaces or drops a table an entry read.  A repeated subplan (the
same dimension scan or build side appearing under several operators, or
the same build recurring across a dashboard's queries) is evaluated
functionally once while warm, while its cost is still charged per
occurrence per query — simulated timings are bit-identical whether a query
runs cold or warm.  A per-query overlay on top of the session cache keeps
within-plan repeats single-evaluated even when the session cache is
disabled (``cache_budget_bytes=0``) or an entry does not fit the budget.

One description per operator, one driver
----------------------------------------

The executor holds no per-operator code.  Every physical operator kind is
described once in :mod:`repro.engine.descriptions` — how it places itself
on devices, how it evaluates (a per-morsel ``transform`` for streaming
operators, a whole-batch ``run`` for pipeline breakers and sources), how
it charges the simulated clocks from its stats record and which
attributes its trace span carries — and :meth:`Executor._execute` is the
one generic driver that walks those descriptions: execute the join build
sides and the source, place every operator, evaluate the chain inside the
kernel memo, then replay each operator's charge bottom-up.

Morsel-driven batching
----------------------

The driver streams, kernels take batches.  :meth:`Executor._evaluate` is
the only carve -> stream -> reassemble loop in the package: it carves a
chain's source batch into morsels of ``ExecutorOptions.morsel_rows`` rows
(surfaced as the ``morsel_rows`` knob on
:class:`~repro.engine.session.HAPEEngine`) and sends each one through the
per-morsel bodies the streaming operators give it (filter/project, join
probes); a pipeline breaker (aggregate, join build, partitioned join) is
handed the resident batch.  The :class:`MorselScheduler` is asked once per
evaluation either way — for a breaker the grant is its yield grid, not a
data path.  Morsel granularity is *wall-clock only*: outputs, stats records
and therefore every simulated second are bit-identical for every setting,
and the per-subplan kernel memo keyed by structural keys works unchanged
because memo entries hold fully reassembled batches, never partial streams.

Pipeline-fused streaming
------------------------

With ``ExecutorOptions.pipeline_fusion`` on (the default, surfaced as the
``pipeline_fusion`` knob on :class:`~repro.engine.session.HAPEEngine`),
morsels do not materialize a full batch at every plan node: maximal chains
of streaming operators (scan source -> filter/project -> exchange routing
-> non-partitioned join probes, identified by
:func:`~repro.codegen.pipeline.fused_chain`) are driven end to end — each
source morsel flows through the *whole* chain before the next one is
carved, and only the chain's boundary batch (the input of the breaker that
consumes it) is ever reassembled.  Intermediate filter/project and join
outputs exist one morsel at a time.  With fusion off every chain simply
has length one: the same driver, the same per-morsel accumulation, one
materialized batch per plan node.

Fusion requires *memo-aware deferral*: an operator whose output is never
materialized cannot be memoized (or session-cached) as a standalone batch.
The executor therefore keys fused evaluations at **fusion-boundary
granularity** — one memo/cache entry per chain, keyed by the structural
key of the chain's top operator with a fused-chain tuning marker, storing
the boundary batch *plus* the per-stage stats records needed to replay
every stage's cost on warm runs.  Subplans that occur more than once in a
plan are sharing points and are never deferred (:meth:`Executor._defer_ok`
cuts the chain there), which preserves single evaluation; and because cost
charging is replayed per stage from the recorded stats in exactly the
unfused order, simulated seconds, device busy times and link bytes are
bit-identical whether fusion is on or off, warm or cold.  Like
``morsel_rows``, the knob is wall-clock/working-set only.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..codegen.pipeline import fused_chain, streams_morsels
from ..hardware.device import Device
from ..hardware.topology import Topology
from ..obs.trace import QueryTrace, Span
from ..operators.base import ArrayMap, OpCost, columns_nbytes, columns_num_rows
from ..relational.physical import PhysicalOp, referenced_tables, structural_key
from ..stats.cardinality import q_error
from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.morsel import (
    DEFAULT_MORSEL_ROWS,
    concat_columns,
    iter_morsels,
    morsel_count,
)
from ..storage.table import Table
from .descriptions import NodeResult, Operator, Residency, description
from .querycache import (
    DEFAULT_CACHE_BUDGET_BYTES,
    CacheCounters,
    QueryCache,
    result_nbytes,
)
from .workers import WorkerPool, resolve_workers

_KernelResult = TypeVar("_KernelResult")

#: Extra fractional cost charged when a pipeline spans CPUs and GPUs,
#: covering packet routing, pinned staging buffers and synchronization.
HYBRID_OVERHEAD = 0.10
#: The same for hybrid pipelines that shuffle join state.
HYBRID_JOIN_OVERHEAD = 0.30


@dataclass(frozen=True)
class ExecutorOptions:
    """Execution knobs — the one documentation home of each.

    The record validates (and normalizes) itself at construction, so a
    bad value raises ``ValueError`` through every door alike: building
    the record, the :class:`~repro.engine.session.HAPEEngine` keywords,
    or assigning a session attribute (all of which end in
    :meth:`Executor.retune`).  Every knob is wall-clock/working-set
    only: results, simulated seconds, device busy times, link bytes and —
    except for the cache budget — cache counters are bit-identical for
    every setting.
    """

    #: Rows per morsel: the driver carves every chain source into slices
    #: of at most this many rows and streams them through the chain, which
    #: bounds the working set of the streaming operators (breakers take
    #: their input whole).  A positive ``int``; ``None`` disables batching
    #: (whole-column packets).  The cache key deliberately ignores this
    #: knob, so cached results stay valid across re-tunes.
    morsel_rows: int | None = DEFAULT_MORSEL_ROWS
    #: Byte budget of the session-lifetime cross-query kernel cache
    #: (:mod:`repro.engine.querycache`), in bytes of pinned result
    #: columns: ``0`` disables cross-query caching, ``None`` lifts the
    #: bound.  Shrinking evicts down to the new budget immediately.  Cost
    #: is charged per occurrence regardless of cache hits.
    cache_budget_bytes: int | None = DEFAULT_CACHE_BUDGET_BYTES
    #: Drive maximal chains of streaming operators (scan ->
    #: filter/project -> exchange routing -> hash-join probes)
    #: morsel-at-a-time end to end, materializing only at fusion
    #: boundaries (aggregate and join-build inputs).  Off = every chain
    #: has length one.  Chains of different depth use distinct cache
    #: entries, so retuning mid-session can cause cold misses but never
    #: wrong reuse.
    pipeline_fusion: bool = True
    #: Worker threads driving fused-chain morsel streams
    #: (:mod:`repro.engine.workers`): ``1`` = run inline
    #: (the exact single-threaded path), ``"auto"`` = the machine's CPU
    #: count, ``None`` = the ``REPRO_WORKERS`` environment variable (else
    #: 1).  Resolved to the concrete count when the record is built.  The
    #: ordered-merge contract of :class:`~repro.engine.workers.WorkerPool`
    #: keeps everything bit-identical at every worker count.
    workers: int | str | None = None
    #: Record a :class:`~repro.obs.trace.QueryTrace` on
    #: :attr:`ExecutionResult.trace`: operator spans (placement, timing,
    #: bytes, rows, cache status), the raw device/link task slices and a
    #: critical-path analysis.  Spans are appended on the query thread at
    #: the cost-charging points — canonical plan order — so a trace is
    #: byte-identical at every worker count (``docs/OBSERVABILITY.md``).
    tracing: bool = False

    def __post_init__(self) -> None:
        rows = self.morsel_rows
        # ``type is int``: a float would die inside the first kernel, and
        # ``True`` is an int that means one-row morsels.
        if rows is not None and (type(rows) is not int or rows <= 0):
            raise ValueError("morsel_rows must be a positive int or None")
        for knob in ("pipeline_fusion", "tracing"):
            if not isinstance(getattr(self, knob), bool):
                raise ValueError(f"{knob} must be a bool")
        object.__setattr__(self, "cache_budget_bytes",
                           QueryCache.validate_budget(self.cache_budget_bytes))
        object.__setattr__(self, "workers", resolve_workers(self.workers))


@dataclass
class MorselScheduler:
    """Grants morsel granularity to kernel evaluations and accounts for it.

    The scheduler owns the granularity policy and the bookkeeping that
    :attr:`ExecutionResult.morsels_dispatched` reports: for each evaluation
    about to run, :meth:`grant` returns the morsel size and records how
    many morsels the input batches amount to.  Only
    :meth:`Executor._evaluate` carves with the answer (a chain source,
    streamed through the chain).  A pipeline breaker takes its batches
    whole; its grant is a *yield grid* — the morsel boundaries at which a
    running evaluation could be interrupted — and the server's preemption
    reads it: ``QueryServer`` divides an attempt's span by
    ``morsels_dispatched`` to place a kill, so a grant that moved would
    move served simulated seconds.

    Morsels bound the *real* working set of the streamed chains (and are
    the unit :class:`~repro.engine.workers.WorkerPool` threads pick up);
    simulated seconds never observe them — "parallel workers" in the cost
    model exist only inside the device clocks ``estimate_*`` prices.
    """

    #: Rows per morsel granted to kernels; ``None`` = whole-column packets.
    morsel_rows: int | None = DEFAULT_MORSEL_ROWS
    #: Morsels carved across all kernel evaluations since the last reset.
    morsels_dispatched: int = 0

    def reset(self) -> None:
        """Zero the per-query counters (one :meth:`Executor.execute`)."""
        self.morsels_dispatched = 0

    def grant(self, *batch_rows: int) -> int | None:
        """Morsel size for an evaluation over the given input batch sizes.

        Call once per actual kernel evaluation (inside the memo, so cached
        subplans grant nothing) with the row count of every input batch the
        evaluation consumes: one for a unary operator, build and probe for
        a join.
        """
        if self.morsel_rows is None:
            return None
        for num_rows in batch_rows:
            self.morsels_dispatched += morsel_count(num_rows, self.morsel_rows)
        return self.morsel_rows


@dataclass
class ExecutionResult:
    """What :class:`Executor.execute` returns."""

    table: Table
    simulated_seconds: float
    device_busy: dict[str, float]
    link_bytes: dict[str, int]
    plan: PhysicalOp
    #: Morsels the scheduler dispatched to kernels for this query: one per
    #: input batch that fits a single morsel, more when batches stream,
    #: zero when batching is disabled (``morsel_rows=None``) and for
    #: kernel evaluations the session cache served.
    morsels_dispatched: int = 0
    #: Session-cache activity attributable to this query: hits/misses of
    #: distinct subplans, evictions during the query, plus invalidations
    #: since the previous query (catalog changes happen between executes).
    cache: CacheCounters = field(default_factory=CacheCounters)
    #: Bytes of the largest intermediate batch the query materialized (the
    #: widest single operator output; base-table scans excluded).  A
    #: wall-clock/working-set diagnostic — never part of simulated time.
    peak_intermediate_bytes: int = 0
    #: Actual output rows per plan ``node_id`` for the relational
    #: operators (scans, filter/projects, joins, aggregates, sorts;
    #: exchanges forward batches and are excluded).  Identical warm and
    #: cold: warm runs recover the counts from the cached stats records.
    operator_rows: dict[int, int] = field(default_factory=dict)
    #: Operator spans plus raw task slices (``ExecutorOptions.tracing``);
    #: ``None`` when tracing is off.
    trace: QueryTrace | None = None

    def utilization(self, resource: str) -> float:
        if self.simulated_seconds <= 0:
            return 0.0
        return self.device_busy.get(resource, 0.0) / self.simulated_seconds


class Executor:
    """Interprets physical plans over the simulated topology."""

    def __init__(self, topology: Topology, catalog: Catalog,
                 options: ExecutorOptions | None = None, *,
                 query_cache: QueryCache | None = None) -> None:
        self.topology = topology
        self.catalog = catalog
        self.options = options or ExecutorOptions()
        self.scheduler = MorselScheduler()
        self._owns_cache = query_cache is None
        if query_cache is None:
            #: Session-lifetime cross-query kernel cache; subscribes to the
            #: catalog so table replacement/drop invalidates exactly the
            #: entries that read the changed table.
            self.query_cache = QueryCache(budget_bytes=None)
            catalog.subscribe(self.query_cache.invalidate_table)
        else:
            # A server-owned shared cache (multi-tenant serving): its owner
            # wires catalog invalidation exactly once and owns the budget
            # knob; the options mirror its setting.
            self.query_cache = query_cache
            self.options = replace(
                self.options, cache_budget_bytes=query_cache.budget_bytes)
        self.retune()
        self._cache_mark = self.query_cache.counters()
        #: What tells a GPU's memory from host memory among a batch's
        #: holders (:meth:`deliver` asks per operator).
        self._gpu_names = frozenset(gpu.name for gpu in topology.gpus())
        #: Largest intermediate batch (bytes of one operator's output
        #: columns, base-table scans excluded) materialized by the current
        #: query — a wall-clock/working-set diagnostic for serving reports.
        self._peak_intermediate = 0
        #: Actual output rows per relational plan node of the current query.
        self._node_rows: dict[int, int] = {}
        # Per-query state: an overlay memo over the session cache (keeps
        # within-plan repeats single-evaluated regardless of cache budget),
        # the structural-key id-cache for the current plan, and the
        # remaining-occurrence counts that bound the overlay's footprint.
        self._query_memo: dict[tuple, dict[object, object]] = {}
        self._key_cache: dict[int, tuple] = {}
        self._key_refs: dict[tuple, int] = {}
        #: Immutable snapshot of the per-plan occurrence counts: the
        #: memo-aware deferral predicate (:meth:`_defer_ok`) must see the
        #: *initial* counts, not the ones :meth:`_memoized_kernel` decays.
        self._plan_refs: dict[tuple, int] = {}
        self._table_versions: dict[str, int] = {}
        # Tracing state: a span list while the current query traces
        # (``None`` = off — the single check every trace point makes) and
        # the per-node cache status / morsel counts recorded inside the
        # kernel memo (session-owned caches only; see _memoized_kernel).
        self._trace_spans: list[Span] | None = None
        self._trace_kernel: dict[int, tuple[str, int]] = {}

    def retune(self, **changes: object) -> None:
        """Change :class:`ExecutorOptions` fields — the one path every knob
        takes, at construction and on a live session alike.

        The new record validates itself, then the state derived from it
        (morsel scheduler, worker pool, cache budget) is brought in line,
        so ``options`` and the objects acting on it cannot disagree.  Takes
        effect for the next :meth:`execute`.  A session sharing a
        server-owned cache cannot re-tune the cache budget — it belongs to
        the server.
        """
        if not self._owns_cache and "cache_budget_bytes" in changes:
            raise ValueError(
                "this session shares a server-owned query cache; tune the "
                "budget on the owning QueryServer")
        self.options = options = replace(self.options, **changes)
        self.scheduler.morsel_rows = options.morsel_rows
        self.pool = WorkerPool(options.workers, tier="kernel")
        if self._owns_cache:
            self.query_cache.set_budget(options.cache_budget_bytes)

    # ------------------------------------------------------------------
    def execute(self, plan: PhysicalOp) -> ExecutionResult:
        """Run a physical plan and report result plus simulated timing."""
        self.topology.reset()
        self.scheduler.reset()
        self._peak_intermediate = 0
        self._node_rows = {}
        self._trace_spans = [] if self.options.tracing else None
        self._trace_kernel = {}
        # Snapshot the catalog versions once: the catalog cannot change
        # mid-query, and cached structural keys embed these versions.
        self._table_versions = self.catalog.table_versions
        try:
            self._key_refs = self._count_kernel_occurrences(plan)
            self._plan_refs = dict(self._key_refs)
            # Fusion starts below the root: the root is a chain of its own.
            result = self._execute(plan, fuse=False)
        finally:
            # Overlay entries are evicted after their last structural
            # occurrence; clear the rest so only the budget-bounded
            # session cache (self.query_cache) outlives the query.
            self._query_memo = {}
            self._key_cache = {}
            self._key_refs = {}
            self._plan_refs = {}
            # Advance the counter mark even on failure, so an aborted
            # query's cache activity is not misattributed to the next
            # query's per-query delta.
            counters = self.query_cache.counters()
            cache_delta = counters.since(self._cache_mark)
            self._cache_mark = counters
        timeline = self.topology.timeline()
        makespan = max(timeline.makespan, result.ready)
        link_bytes = {link.name: link.bytes_moved
                      for link in self.topology.links}
        trace = self._assemble_trace(plan, timeline, makespan, link_bytes)
        table = Table("result", [Column(name, values)
                                 for name, values in result.columns.items()]) \
            if result.columns else Table.from_arrays("result", {"empty": np.asarray([0])[:0]})
        return ExecutionResult(
            table=table,
            simulated_seconds=makespan,
            device_busy={clock.resource: clock.busy_time for clock in timeline},
            link_bytes=link_bytes,
            plan=plan,
            morsels_dispatched=self.scheduler.morsels_dispatched,
            cache=cache_delta,
            peak_intermediate_bytes=self._peak_intermediate,
            operator_rows=dict(self._node_rows),
            trace=trace,
        )

    def _assemble_trace(self, plan: PhysicalOp, timeline, makespan: float,
                        link_bytes: dict[str, int]) -> QueryTrace | None:
        """Join the recorded spans with rows/cache info into a QueryTrace."""
        spans = self._trace_spans
        if spans is None:
            return None
        self._trace_spans = None
        # Plan node ids come from a global counter, so two optimizations
        # of the same query number their nodes differently.  Traces use
        # plan-local ordinals (walk order) instead, making the JSONL of
        # identical plans byte-identical across re-plans and sessions.
        slots = {node.node_id: slot for slot, node in enumerate(plan.walk())}
        for span in spans:
            rows = self._node_rows.get(span.node_id)
            if rows is not None:
                span.rows = rows
                if span.est_rows is not None:
                    span.q_error = q_error(span.est_rows, rows)
            kernel = self._trace_kernel.get(span.node_id)
            if kernel is not None:
                span.cache, span.morsels = kernel
            span.node_id = slots.get(span.node_id, span.node_id)
        self._trace_kernel = {}
        return QueryTrace(
            spans=spans, tasks=tuple(timeline.records()), makespan=makespan,
            link_bytes=dict(link_bytes),
            morsels_dispatched=self.scheduler.morsels_dispatched)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _structural(self, node: PhysicalOp) -> tuple:
        """Catalog-versioned structural key of a subtree (per-plan cached)."""
        return structural_key(node, self._key_cache,
                              table_versions=self._table_versions)

    def _memoized_kernel(self, node: PhysicalOp,
                         run: Callable[[], _KernelResult],
                         tuning: object = None, *,
                         zero_copy: bool = False) -> _KernelResult:
        """Evaluate a functional kernel at most once per distinct subplan.

        Keyed by the catalog-versioned structural key of the subtree rooted
        at ``node``.  Lookups go through two layers: the per-query overlay
        first (within-plan repeats, not counted as cache traffic), then the
        session-lifetime :class:`QueryCache` (cross-query reuse, counted as
        hits/misses per distinct subplan).  Misses evaluate the kernel and
        retain the result in both layers; costing happens outside this
        cache, per occurrence, so simulated seconds never observe it.

        ``tuning`` must identify any device-spec-derived knobs the kernel
        bakes into its result or inherits from its inputs (partition plans
        of the radix joins, via :attr:`NodeResult.kernel_tag`): two
        occurrences only share an evaluation when their tuning matches,
        keeping per-occurrence cost replays and row orders exact.

        ``zero_copy`` marks results whose columns are views over
        catalog-resident arrays (base-table scans): they are retained at a
        byte cost of 0 since they pin no memory beyond the catalog.

        An overlay entry is evicted right after its *last* structural
        occurrence in the plan, so the per-query layer only pins
        intermediates that can still be reused within this plan; what
        outlives the query is governed solely by the session cache's LRU
        byte budget.
        """
        key = self._structural(node)
        variants = self._query_memo.get(key)
        result = None if variants is None else variants.get(tuning)
        status = "overlay"
        morsel_delta = 0
        if result is None:
            session_key = (key, tuning)
            if self.query_cache.enabled:
                result = self.query_cache.get(session_key)
            if result is None:
                status = "miss"
                morsels_before = self.scheduler.morsels_dispatched
                result = run()
                morsel_delta = (self.scheduler.morsels_dispatched
                                - morsels_before)
                if self.query_cache.enabled:
                    self.query_cache.put(
                        session_key, result,
                        nbytes=0 if zero_copy else result_nbytes(result),
                        tables=referenced_tables(node))
            else:
                status = "hit"
            self._query_memo.setdefault(key, {})[tuning] = result
        if self._trace_spans is not None and self._owns_cache:
            # Cache warmth is a per-span diagnostic only for session-owned
            # caches: raw lookup outcomes against a server-shared cache
            # race between tenants, so served traces attribute cache
            # activity from the committed counters instead (the server's
            # "complete" event).  VOLATILE_SPAN_KEYS strips these for the
            # warm-vs-cold timing contract.
            self._trace_kernel[node.node_id] = (status, morsel_delta)
        remaining = self._key_refs.get(key, 0) - 1
        if remaining <= 0:
            self._query_memo.pop(key, None)
            self._key_refs.pop(key, None)
        else:
            self._key_refs[key] = remaining
        return result  # type: ignore[return-value]

    def _count_kernel_occurrences(self, plan: PhysicalOp) -> dict[tuple, int]:
        """Occurrences per structural key of every node the memo serves."""
        refs: dict[tuple, int] = {}
        for node in plan.walk():
            if description(node).memoized:
                key = self._structural(node)
                refs[key] = refs.get(key, 0) + 1
        return refs

    def _defer_ok(self, node: PhysicalOp) -> bool:
        """May ``node``'s output be deferred (streamed, not materialized)?

        Memo-aware deferral: a subplan that occurs more than once in the
        current plan is a sharing point — its single evaluation must be
        materialized so other occurrences can reuse it — so only
        single-occurrence subplans join a fused chain.
        """
        return self._plan_refs.get(self._structural(node), 0) == 1

    # ------------------------------------------------------------------
    # The driver
    # ------------------------------------------------------------------
    def _execute(self, node: PhysicalOp, *, fuse: bool = True) -> NodeResult:
        """Execute the subtree rooted at ``node`` and return its batch.

        ``node`` tops a *chain*: the maximal fused chain of streaming
        operators below it when fusion is on and it starts one, else just
        ``node`` itself — unfused execution is the one-stage case, not a
        second code path.  Every chain runs the same four steps:

        1. assembly walks top-down, executing the build side of every join
           (creating its description does) and finally the chain's source,
           so all their charges land on the simulated clocks first;
        2. a placement pass threads devices and kernel tags bottom-up and
           lets every operator refuse placements it cannot hold (the join's
           GPU capacity check) — before anything streams or is cached;
        3. the functional evaluation runs inside the kernel memo, keyed at
           chain granularity: the chain top's structural key plus a tuning
           marker, storing the boundary batch and the per-stage stats
           records (warm runs skip the evaluation and reuse both);
        4. the per-stage costs are replayed bottom-up from the records.
        """
        nodes = (fused_chain(node, self._defer_ok)
                 if fuse and self.options.pipeline_fusion else []) or [node]
        ops = [description(op)(op, self) for op in nodes]
        inputs = nodes[-1].children()
        batch = (self._execute(inputs[-1]) if inputs
                 else NodeResult(None, 0.0, Residency({}), []))
        ops.reverse()  # bottom-up: the order morsels flow
        devices, tag = batch.devices, batch.kernel_tag
        for op in ops:
            devices = op.devices = op.place(devices)
            tag = op.kernel_tag = op.tag(tag)
            op.check(batch)
        top = ops[-1]
        if top.memoized:
            # The tuning marker's chain depth pins which stats records the
            # entry carries, keeping differently-shaped entries for the
            # same key apart.
            columns, records = self._memoized_kernel(
                node, lambda: self._evaluate(ops, batch),
                tuning=(tag, ("fused-chain", len(ops))),
                zero_copy=top.zero_copy)
        else:
            columns, records = self._evaluate(ops, batch)
        for op, record in zip(ops, records):
            stats, nbytes, rows = record or (None, batch.nbytes, None)
            op.charge(batch, stats)
            batch.nbytes = nbytes
            if record:  # exchanges forward batches and report no rows
                self._node_rows[op.node.node_id] = rows
        batch.columns = columns
        if inputs:
            self._peak_intermediate = max(self._peak_intermediate,
                                          batch.nbytes)
        return batch

    def _evaluate(self, ops: Sequence[Operator], source: NodeResult,
                  ) -> tuple[ArrayMap, tuple]:
        """Evaluate a chain over its source batch (cold runs only).

        Returns the boundary columns plus one record per operator —
        ``(stats, output bytes, output rows)``, or ``None`` for an
        exchange — which is everything the charge replay (and a warm run)
        needs.  A breaker or source runs on its whole input.  A streaming
        chain carves the source into morsels and each morsel flows through
        the *entire* chain before the next one is touched, so intermediate
        outputs only ever exist one morsel at a time; the boundary batch
        is reassembled with the consuming concatenation to keep the
        materialization spike near the output's own size.

        With ``workers > 1`` the morsel stream is split into at most
        ``workers`` contiguous chunks and each chunk flows through the
        (pure) transforms on a pool thread.  Chunk results come back in
        morsel order and everything else — ``begin``, the morsel grant,
        summing the per-morsel flows — happens on this thread, so columns
        and records are bit-identical at every worker count.
        """
        top = ops[-1]
        if not streams_morsels(top.node):
            columns, stats = top.run(source)
            return columns, ((stats, columns_nbytes(columns),
                              columns_num_rows(columns)),)
        stages = [op for op in ops if op.transform is not None]
        if not stages:  # a lone exchange
            return source.columns, (None,)
        for stage in stages:
            stage.begin()
        morsels = list(iter_morsels(source.columns,
                                    self.scheduler.grant(source.num_rows)))

        def run_span(span: range) -> tuple[list[ArrayMap], list[list]]:
            outs: list[ArrayMap] = []
            flows: list[list] = []
            for index in span:
                batch = morsels[index]
                flow = []
                for stage in stages:
                    out, in_bytes = stage.transform(batch)
                    flow.append((columns_num_rows(batch), in_bytes,
                                 columns_nbytes(out), columns_num_rows(out)))
                    batch = out
                outs.append(batch)
                flows.append(flow)
            return outs, flows

        parts: list[ArrayMap] = []
        flows: list[list] = []
        for outs, span_flows in self.pool.map_ordered(
                run_span, self.pool.chunks(len(morsels))):
            parts.extend(outs)
            flows.extend(span_flows)
        columns = concat_columns(parts, consume=True)
        # Transpose morsels x stages, then sum each stage's four counters.
        totals = {stage: [sum(counter) for counter in zip(*stage_flows)]
                  for stage, stage_flows in zip(stages, zip(*flows))}

        def record(op: Operator) -> tuple | None:
            if op not in totals:
                return None
            in_rows, in_bytes, out_nbytes, out_rows = totals[op]
            return (op.stats(in_rows, in_bytes, out_nbytes), out_nbytes,
                    out_rows)

        return columns, tuple(map(record, ops))

    # ------------------------------------------------------------------
    # Cost charging helpers the descriptions share
    # ------------------------------------------------------------------
    def default_devices(self) -> list[Device]:
        return [self.topology.anchor_cpu()]

    def deliver(self, batch: NodeResult, devices: Sequence[Device], *,
                earliest: float, label: str, whole: bool = False,
                ) -> tuple[Residency, list[tuple[Device, float, float]]]:
        """Bring ``batch`` to the devices about to consume it — the one
        place that puts bytes on a link.

        Each device consumes a share of the batch (all of it with
        ``whole``: a broadcast).  The split is inherited while the
        consumers' memories are the batch's holders and computed afresh
        where they differ: by memory bandwidth, except that a GPU holding
        none of the batch weighs in with the bottleneck of the route that
        feeds it.  A GPU is shipped the part of its share it does not hold
        yet, from the batch's first holder over :meth:`Topology.route`,
        and must have room to stage it.  CPU sockets share host memory and
        split what it holds by memory bandwidth; gathering GPU-resident
        bytes back to it is not charged.

        Returns the batch's residency once consumed and one ``(device,
        share, arrival time)`` per device; the clocks of the links crossed
        are the only state touched.
        """
        if not devices:
            return batch.residency, []
        held = batch.residency.shares
        source = next(iter(held))
        gpu_names = self._gpu_names
        host = next((name for name in held if name not in gpu_names), None)
        names, memories, host_bandwidth = [], [], 0.0
        for device in devices:
            name = device.spec.name
            names.append(name)
            if name not in gpu_names:
                host = host or name
                host_bandwidth += device.spec.memory_bandwidth_gib_s
            memories.append(name if name in gpu_names else host)
        placed, routes = held, {}  # as is: each share is where it is needed
        if whole or held.keys() != set(memories):
            routes = {name: self.topology.route(source, name)
                      for name in names if name in gpu_names}
            placed = dict.fromkeys(memories, 1.0 if whole else 0.0)
            if not whole:
                weights = [routes[name].bottleneck_bandwidth_gib_s
                           if name in routes and name not in held
                           else device.spec.memory_bandwidth_gib_s
                           for name, device in zip(names, devices)]
                total = sum(weights)
                for memory, weight in zip(memories, weights):
                    placed[memory] += weight / total
        arrivals = []
        for name, memory, device in zip(names, memories, devices):
            share, arrival = placed[memory], earliest
            if not whole and name not in gpu_names:
                share = (share * device.spec.memory_bandwidth_gib_s
                         / host_bandwidth)
            missing = share - held.get(name, 0.0)
            if name in routes and missing > 0.0:
                payload = int(batch.nbytes * missing)
                device.allocate(payload, label=f"{label} staging").free()
                arrival = routes[name].transfer(payload, earliest=earliest,
                                                label=label)
            arrivals.append((device, share, arrival))
        return (batch.residency if placed is held
                else Residency(placed)), arrivals

    def charge_parallel(self, devices: Sequence[Device],
                        estimate: Callable[[Device], OpCost],
                        batch: NodeResult, *, earliest: float, label: str,
                        join_shuffle: bool = False,
                        ) -> tuple[float, Residency]:
        """Charge a parallel operator over ``batch`` across its devices.

        The work is priced once per participating device kind (on that
        kind's first device) and each device is charged its share of it
        from the moment its share has arrived (:meth:`deliver`); returns
        the time the last device finishes and where the output lives.
        """
        seconds_by_kind: dict = {}
        for device in devices:
            if device.kind not in seconds_by_kind:
                seconds_by_kind[device.kind] = estimate(device).seconds
        overhead = 0.0
        if len(seconds_by_kind) > 1:  # the pipeline spans CPUs and GPUs
            overhead = (HYBRID_JOIN_OVERHEAD if join_shuffle
                        else HYBRID_OVERHEAD)
        residency, arrivals = self.deliver(batch, devices, earliest=earliest,
                                           label=f"{label}:h2d")
        ready = earliest
        for device, share, arrival in arrivals:
            seconds = seconds_by_kind[device.kind] * share
            seconds *= 1.0 + overhead
            record = device.charge(seconds, earliest=arrival, label=label)
            ready = max(ready, record.end)
        return ready, residency

    def broadcast_build(self, build: NodeResult, gpus: Sequence[Device],
                        earliest: float, *, whole: bool) -> float:
        """Bring a join's build side to the GPUs that probe it: all of it
        to each for a non-partitioned join (``whole``), its share of the
        co-partitions to each for a partitioned one.

        In the plans this optimizer emits a build is either host-resident
        or — for the partitioned GPU join in GPU-only mode — already split
        across the GPUs that join it, where nothing is shipped; GPU
        capacity is enforced separately (``ensure_gpu_join_fits``).
        """
        _, arrivals = self.deliver(build, gpus, earliest=earliest,
                                   label="broadcast-build", whole=whole)
        return max([earliest, *(arrival for _, _, arrival in arrivals)])
