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
on devices, how it evaluates (a per-morsel transform for streaming
operators, a whole-batch ``run`` for pipeline breakers and sources), how
it charges the simulated clocks from its stats record and which
attributes its trace span carries.

A plan is compiled once (:meth:`Executor.compile`) into a
:class:`Program`: its chains, each with its placed descriptions and memo
key (made and hashed once: :meth:`QueryCache.key`), and every
description's pricing memo.  A
session keeps the program on the plan's prepared record, so a repeated
query derives none of it again.  :meth:`Executor._run` is the one driver
that walks the prepared program: execute the join build sides and the
source, check capacities, evaluate the chain inside the kernel memo, then
charge each operator bottom-up — a price derived once per (stats record,
input bytes, input residency), clocks reserved with it.

A warm timeline is a pure function of the program and the stats records
its cache hits return, so the program also keeps the timeline of its last
execution in which no kernel ran: every device and link clock, the keys
it looked up and the result it handed out without its table — figures,
rows, morsels, peak bytes, cardinality report and, traced, the trace.
That execution also leaves its result table on the cache entry the
columns come from — a sorted root's sorted once — charged to the entry's
bytes (:meth:`QueryCache.kept`).  While the table is kept and every one
of those keys is still cached, an execution replays without walking the
driver: it counts a hit for each key in the kept order
(:meth:`QueryCache.get_all`), restores the clocks and hands out the kept
table, report and trace (all immutable) with copies of the kept figures
and rows.  It runs no capacity check: those are pure
functions of rows and device specs, and both are fixed while the keys
are cached and the program stands.  A key or table gone from the cache,
a disabled cache or a new program (the prepared record's stamp — catalog
versions, device health, memories, link bandwidths, options — drops the
old one with its timeline) stops the replay; the next all-hit execution
charges again.

Morsel-driven batching
----------------------

The driver streams, kernels take batches.  :meth:`Executor._evaluate` is
the only carve -> stream -> reassemble loop in the package: it carves a
chain's source batch into morsels of ``ExecutorOptions.morsel_rows`` rows
(surfaced as the ``morsel_rows`` knob on
:class:`~repro.engine.session.HAPEEngine`) and sends each one through the
per-morsel bodies the streaming operators give it (filter/project, join
probes); a pipeline breaker (aggregate, join build, partitioned join) is
handed the resident batch.  :meth:`Executor.grant` is asked once per
evaluation either way — for a breaker the grant is its yield grid, not a
data path.  Morsel granularity is *wall-clock only*: outputs, stats records
and therefore every simulated second are bit-identical for every setting,
and the per-subplan kernel memo keyed by structural keys works unchanged
because memo entries hold fully reassembled batches, never partial streams.

Pipeline-fused streaming
------------------------

Morsels do not materialize a full batch at every plan node: maximal
chains of streaming operators (scan source -> filter/project -> exchange
routing -> non-partitioned join probes, identified by
:func:`~repro.codegen.pipeline.fused_chain`) are driven end to end — each
source morsel flows through the *whole* chain before the next one is
carved, and only the chain's boundary batch (the input of the breaker that
consumes it) is ever reassembled.  Inside the chain a morsel is a
:class:`~repro.operators.base.Rows` view: filters and probes compose row
positions, each column is gathered once and only when a stage reads it,
and the view is materialized — every column gathered once, through its
composed positions — only at the boundary.  Stage stats read the view's
byte counts, which equal the gathered arrays'.  A node that starts no
chain (a breaker, a sort, the plan's root) is a chain of length one: the
same driver, not a second code path.

Fusion requires *memo-aware deferral*: an operator whose output is never
materialized cannot be memoized (or session-cached) as a standalone batch.
The executor therefore keys fused evaluations at **fusion-boundary
granularity** — one memo/cache entry per chain, keyed by the structural
key of the chain's top operator with a fused-chain tuning marker, storing
the boundary batch *plus* one stats record per relational stage, what a
warm run needs to replay every stage's cost.  The key looks through the
exchanges inside and below the chain, so one entry serves every placement
of the subplan.  Subplans that occur more than once in a
plan are sharing points and are never deferred (:meth:`Executor.compile`
cuts the chain there), which preserves single evaluation; and because cost
charging is replayed per stage, bottom-up, from the recorded stats —
each stage's record equals its standalone kernel's — simulated seconds,
device busy times and link bytes are those of pricing every operator on
its own, warm or cold.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import count
from types import MappingProxyType
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from ..codegen.pipeline import Pipeline, fused_chain, streams_morsels
from ..hardware.device import Device
from ..hardware.topology import Topology
from ..obs.trace import QueryTrace, Span
from ..operators.base import ArrayMap, Rows
from ..relational.physical import (
    PhysicalOp,
    PJoin,
    referenced_tables,
    structural_key,
)
from ..stats.cardinality import CardinalityReport, pair_report
from ..storage.catalog import Catalog
from ..storage.morsel import (
    DEFAULT_MORSEL_ROWS,
    concat_columns,
    iter_morsels,
    morsel_count,
)
from ..storage.table import Table
from .descriptions import (NOWHERE, NodeResult, Operator, Price, Residency,
                           description)
from .modes import ExecutionMode
from .querycache import (
    DEFAULT_CACHE_BUDGET_BYTES,
    CacheCounters,
    CacheKey,
    QueryCache,
    result_nbytes,
)

_KernelResult = TypeVar("_KernelResult")


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
    #: their input whole).  A positive ``int``; one larger than every
    #: batch runs each batch as a single morsel.  The cache key
    #: deliberately ignores this knob, so cached results stay valid across
    #: re-tunes.
    morsel_rows: int = DEFAULT_MORSEL_ROWS
    #: Byte budget of the session-lifetime cross-query kernel cache
    #: (:mod:`repro.engine.querycache`), in bytes of pinned result
    #: columns: ``0`` disables cross-query caching, ``None`` lifts the
    #: bound.  Shrinking evicts down to the new budget immediately.  Cost
    #: is charged per occurrence regardless of cache hits.
    cache_budget_bytes: int | None = DEFAULT_CACHE_BUDGET_BYTES
    #: Record a :class:`~repro.obs.trace.QueryTrace` on
    #: :attr:`QueryResult.trace`: operator spans (placement, timing,
    #: bytes, rows, cache status), the raw device/link task slices and a
    #: critical-path analysis.  Spans are appended at the cost-charging
    #: points — canonical plan order — so a trace is byte-identical across
    #: replays (``docs/OBSERVABILITY.md``).
    tracing: bool = False

    def __post_init__(self) -> None:
        rows = self.morsel_rows
        # ``type is int``: a float would die inside the first kernel, and
        # ``True`` is an int that means one-row morsels.
        if type(rows) is not int or rows <= 0:
            raise ValueError("morsel_rows must be a positive int")
        if not isinstance(self.tracing, bool):
            raise ValueError("tracing must be a bool")
        object.__setattr__(self, "cache_budget_bytes",
                           QueryCache.validate_budget(self.cache_budget_bytes))


def _result_table(columns: ArrayMap) -> Table:
    return Table.from_arrays("result", columns
                             or {"empty": np.asarray([0])[:0]})


def _kept_table(columns: ArrayMap) -> tuple[Table, int]:
    """A result table for a cache entry to keep, made read-only, and the
    bytes it holds beyond the cache: its writeable arrays, since the cache
    freezes every array it holds — a sort's output, or a copy a
    :class:`~repro.storage.column.Column` made to fit its type."""
    table = _result_table(columns)
    fresh = [column.values for column in table.columns
             if column.values.flags.writeable]
    for values in fresh:
        values.flags.writeable = False
    return table, sum(values.nbytes for values in fresh)


class Chain(NamedTuple):
    """One chain of a compiled plan: the maximal fused chain of streaming
    operators below its top node (just the node when it starts none), and
    the chains that feed it."""

    #: The descriptions bottom-up — the order morsels flow — placed.
    ops: tuple[Operator, ...]
    #: The chain producing the source batch (``None``: the chain is a scan).
    source: "Chain | None"
    #: Kernel-memo key (``None``: the top is not memoized): the cache's
    #: canonical :class:`CacheKey` of the top node's catalog-versioned
    #: structural key and the tuning marker — the device tuning the top's
    #: stats record is written with (:meth:`Operator.tuning`) and the
    #: chain's relational stage count, which pins the stats records an
    #: entry carries.  Made once, at compile, and hashed once: every
    #: program compiled against the cache holds this object for the same
    #: subplan and tuning, so each lookup hits on identity.
    key: CacheKey | None
    #: Per op, the index of its stats record among the relational stages'
    #: (``None``: an exchange, which has none).
    layout: tuple[int | None, ...]
    #: Where the output is placed, as the consumer's placement reads it.
    devices: list[Device]


class Replay(NamedTuple):
    """The timeline of a program's last execution in which no kernel ran:
    what a later all-hit execution of the program hands out instead of
    walking the driver again.  Holds clocks, lookups and that execution's
    result, never a batch: the result table is kept on the root chain's
    cache entry (:meth:`QueryCache.kept`).
    """

    #: Every device and link clock, and each link's bytes moved
    #: (:meth:`Topology.clock_state`).
    clocks: tuple
    #: The session-cache keys the execution looked up, in order — the
    #: chains' compiled :attr:`Chain.key` objects, so
    #: :meth:`QueryCache.get_all` hashes each in O(1): while all are
    #: cached, an execution of the program runs no kernel.
    lookups: tuple[CacheKey, ...]
    #: The execution's :class:`QueryResult` without its table.  A replay
    #: copies its ``device_busy``, ``link_bytes`` and ``operator_rows``
    #: and shares the rest: the frozen report and the immutable trace.
    result: QueryResult


@dataclass(eq=False)
class Program:
    """A physical plan compiled for one executor (:meth:`Executor.compile`).

    Holds decisions, prices, the span skeleton (each placed
    description's plan-walk ordinal and device names, so a traced
    execution walks no plan), the estimated report, the mode its traces
    carry, where its result table is kept (:attr:`output`) and the
    :class:`Replay` of its last execution in which no kernel ran — never
    a batch.  A session keeps it
    on the plan's prepared record, valid while the catalog versions,
    device health, memories, link bandwidths and options it was compiled
    under hold — the record's stamp drops it when any of them changes.
    """

    root: Chain
    #: Occurrences per chain key (:attr:`Chain.key`) the plan repeats (keys
    #: occurring once are left out): only these enter the per-query
    #: overlay, and each query decays its own copy to evict an entry after
    #: its key's last occurrence.
    refs: dict[CacheKey, int]
    #: The cache key of the entry the result columns come from (the root
    #: chain's, or the first keyed chain below a sort or an exchange) and
    #: the tag an all-hit execution keeps the result table under on that
    #: entry: the canonical key of the root's structural key.  Both are
    #: compiled keys, hashed once.
    output: tuple[CacheKey, CacheKey]
    #: The estimated half of the cardinality report, ``(node_id,
    #: estimate)`` items in node order (a session sets it; empty: the
    #: report is): a charged execution pairs it with its actual rows.
    estimated: list = field(default_factory=list)
    #: The resolved mode's value, which the session compiled the plan for
    #: and its traces carry as :attr:`QueryTrace.mode` (empty: none).
    mode: str = ""
    replay: Replay | None = None


@dataclass
class QueryResult:
    """Everything a query run produces: :meth:`Executor.execute` fills it,
    and a session adds the mode and the pipelines.

    The functional output lives in :attr:`table` — one object shared by
    every replay of a kept program (:meth:`QueryCache.kept`), so it is
    immutable and its arrays are read-only; :attr:`simulated_seconds`
    and :attr:`device_busy` are what the paper's evaluation figures plot.
    :attr:`morsels_dispatched` and :attr:`cache` are wall-clock/working-set
    diagnostics that never influence the simulated timings (warm and cold
    runs report bit-identical simulated seconds).
    """

    table: Table
    simulated_seconds: float
    device_busy: dict[str, float]
    link_bytes: dict[str, int]
    physical_plan: PhysicalOp
    #: Morsels granted to kernels for this query (:meth:`Executor.grant`):
    #: one per input batch that fits a single morsel, more when batches
    #: stream, none for kernel evaluations the session cache served.
    morsels_dispatched: int = 0
    #: Session-cache activity attributable to this query: hits/misses of
    #: distinct subplans, evictions during the query, plus invalidations
    #: since the previous query (catalog changes happen between executes).
    cache: CacheCounters = field(default_factory=CacheCounters)
    #: Bytes of the widest single intermediate batch the query
    #: materialized (scans excluded) — the per-query working-set figure
    #: multi-tenant serving reports account against memory budgets.
    peak_intermediate_bytes: int = 0
    #: Actual output rows per plan ``node_id`` for the relational
    #: operators (scans, filter/projects, joins, aggregates, sorts;
    #: exchanges forward batches and are excluded).  Identical warm and
    #: cold: warm runs recover the counts from the cached stats records.
    operator_rows: dict[int, int] = field(default_factory=dict)
    #: Operator spans, raw task slices and critical-path analysis for this
    #: query (the ``tracing`` knob); ``None`` when tracing is off.  Purely
    #: additive — every other field is bit-identical with tracing on or off.
    #: Immutable: the replays of a kept program share one.
    trace: QueryTrace | None = None
    #: The resolved mode and the plan's pipelines (set by the session).
    mode: ExecutionMode | None = None
    pipelines: list[Pipeline] = field(default_factory=list)
    #: Estimated vs. actual output rows per executed operator, with
    #: q-errors — the estimation-quality accounting the ``stats`` bench
    #: suite tracks over time (:attr:`Program.estimated`).  Purely diagnostic:
    #: estimates influence plan *choice* only, never what a chosen plan
    #: computes.
    cardinality: CardinalityReport = field(default_factory=CardinalityReport)

    @property
    def makespan_ms(self) -> float:
        return self.simulated_seconds * 1e3

    def busy_fraction(self, resource: str) -> float:
        if self.simulated_seconds <= 0:
            return 0.0
        return self.device_busy.get(resource, 0.0) / self.simulated_seconds

    def describe(self) -> str:
        lines = [
            f"mode={self.mode} simulated_time={self.simulated_seconds * 1e3:.3f} ms",
            f"result rows={self.table.num_rows}",
        ]
        if self.cache.lookups or self.cache.evicted or self.cache.invalidated:
            lines.append(f"  cache: {self.cache.describe()}")
        if self.cardinality.operators:
            lines.append(f"  cardinality: median q-error "
                         f"{self.cardinality.median_q_error:.2f} "
                         f"(max {self.cardinality.max_q_error:.2f})")
        for resource, busy in sorted(self.device_busy.items()):
            if busy > 0:
                lines.append(f"  {resource:>8}: busy {busy * 1e3:.3f} ms "
                             f"({100 * self.busy_fraction(resource):.0f}%)")
        return "\n".join(lines)


class Executor:
    """Interprets physical plans over the simulated topology."""

    def __init__(self, topology: Topology, catalog: Catalog,
                 options: ExecutorOptions | None = None, *,
                 query_cache: QueryCache | None = None) -> None:
        self.topology = topology
        self.catalog = catalog
        self.options = options or ExecutorOptions()
        #: Morsels granted to the current query's kernels (:meth:`grant`).
        self.morsels_dispatched = 0
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
        #: The last execution's cache window (:meth:`QueryCache.window`),
        #: failed or not; a result carries it as :attr:`QueryResult.cache`.
        self.cache_delta = CacheCounters()
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
        # within-plan repeats single-evaluated regardless of cache budget)
        # and this query's copy of the program's remaining-occurrence
        # counts that bound the overlay's footprint.
        self._query_memo: dict[CacheKey, object] = {}
        self._key_refs: dict[CacheKey, int] = {}
        # Tracing state: a span list while the current query traces
        # (``None`` = off — the single check every trace point makes) and
        # the per-node cache status / morsel counts recorded inside the
        # kernel memo (session-owned caches only; see _memoized_kernel).
        self._trace_spans: list[Span] | None = None
        self._trace_kernel: dict[int, tuple[str, int]] = {}
        # Whether a kernel ran in the current execution and the
        # session-cache keys it looked up (released as it ends).
        self._kernel_ran = False
        self._lookups: list[CacheKey] = []

    def retune(self, **changes: object) -> None:
        """Change :class:`ExecutorOptions` fields — the one path every knob
        takes, at construction and on a live session alike.

        The new record validates itself, then the state derived from it
        (the cache budget) is brought in line,
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
        if self._owns_cache:
            self.query_cache.set_budget(options.cache_budget_bytes)

    # ------------------------------------------------------------------
    def compile(self, plan: PhysicalOp) -> Program:
        """Compile ``plan``: key every node, cut the chains, place them.

        The keys embed the catalog versions read here, once, and each
        chain's memo key, the output key and its tag are made here, once:
        canonical objects of the query cache (:meth:`QueryCache.key`), so
        no execution builds or walks a key again.  Placement reads device
        health, the anchor CPU and the router consumers.  Every
        description starts with an empty pricing memo, filled by the first
        execution that charges it, and is given its span skeleton: its
        node's plan-walk ordinal and its placed devices' names.
        """
        keys: dict[int, tuple] = {}
        versions = self.catalog.table_versions
        nodes = list(plan.walk())
        # Plan node ids come from a global counter, so two optimizations
        # of the same query number their nodes differently.  Spans carry
        # plan-local ordinals (walk order) instead, making the JSONL of
        # identical plans byte-identical across re-plans and sessions.
        slots = {node.node_id: slot for slot, node in enumerate(nodes)}
        shared = Counter(structural_key(node, keys, table_versions=versions)
                         for node in nodes if description(node).memoized)
        refs: Counter = Counter()
        # Fusion starts below the root: the root is a chain of its own.
        root = output = self._chain(plan, keys, shared, refs, slots,
                                    fuse=False)
        while output.key is None:  # a sort or an exchange reads its source
            output = output.source
        return Program(root,
                       {key: count for key, count in refs.items() if count > 1},
                       (output.key, self.query_cache.key(structural_key(
                           plan, keys, table_versions=versions))))

    def _chain(self, node: PhysicalOp, keys: dict[int, tuple],
               shared: Counter, refs: Counter, slots: dict[int, int], *,
               fuse: bool = True) -> Chain:
        """Compile the chain topped by ``node`` and the chains it reads:
        the build side of every join (top-down), then the source — the
        order execution reaches them — counting each chain key into
        ``refs``.

        A subplan occurring more than once in the plan (``shared``, by
        structural key) is a sharing point (memo-aware deferral): its
        single evaluation must be materialized so the other occurrences
        can reuse it, so only single-occurrence subplans join a fused
        chain.  Placement threads devices bottom-up, and each placed
        description takes its span skeleton from it.
        """
        nodes = (fused_chain(node, lambda op: shared[keys[id(op)]] == 1)
                 if fuse else []) or [node]
        ops = [description(op)(op, self) for op in nodes]
        for op in ops:
            if isinstance(op.node, PJoin):
                op.build = self._chain(op.node.build, keys, shared, refs,
                                       slots)
        inputs = nodes[-1].children()
        source = (self._chain(inputs[-1], keys, shared, refs, slots)
                  if inputs else None)
        ops.reverse()  # bottom-up: the order morsels flow
        devices = source.devices if source else []
        for op in ops:
            devices = op.devices = op.place(devices)
            op.slot = slots[op.node.node_id]
            op.device_names = tuple(device.name for device in devices)
        top, stage = ops[-1], count()
        layout = tuple(None if op.node.is_exchange() else next(stage)
                       for op in ops)
        key = None
        if top.memoized:
            # The next stage index is the number of relational stages.
            key = self.query_cache.key((keys[id(node)], (
                top.tuning(), ("fused-chain", next(stage)))))
            refs[key] += 1
        return Chain(tuple(ops), source, key, layout, top.handoff())

    def execute(self, plan: PhysicalOp,
                program: Program | None = None) -> QueryResult:
        """Run a physical plan and report result plus simulated timing.

        ``program`` is the plan's :meth:`compile` when the caller kept it
        (a session's prepared record); without it the plan is compiled
        here.

        An execution of a kept program in which no kernel ran (the cache
        on, every memoized chain a hit or an overlay read) leaves its
        :class:`Replay` on the program and its result table on the cache
        entry the columns come from (:attr:`Program.output`).  While the
        table is kept and every key it looked up is still cached, the next
        execution runs no kernel either and would reserve the same clocks
        again, so it replays instead, walking no driver: it counts a hit
        for every kept key in the kept order (the counters and LRU order a
        charged walk leaves), restores the clocks, and hands out the kept
        result: its table, report and trace shared (all are immutable),
        its figures and rows copied.
        """
        kept = program is not None
        try:
            if not kept:
                program = self.compile(plan)
            replayed = self._replay(program)
            if replayed is None:
                self.morsels_dispatched = self._peak_intermediate = 0
                self._node_rows = {}
                self._trace_spans = [] if self.options.tracing else None
                self._kernel_ran, self._lookups = False, []
                self.topology.reset()
                self._key_refs = dict(program.refs)
                output = self._run(program.root)
                # All hits: the table is kept on its entry (or already was).
                keep = (kept and self.query_cache.enabled
                        and not self._kernel_ran)
                table = (self.query_cache.kept(
                    *program.output, lambda: _kept_table(output.columns))
                    if keep else _result_table(output.columns))
            else:
                replay, table = replayed
                self.topology.restore_clocks(replay.clocks)
        finally:
            # Overlay entries are evicted after their last structural
            # occurrence; clear the rest (and a failed query's counts) so
            # only the budget-bounded session cache (self.query_cache)
            # outlives the query.  The executor keeps no key past it:
            # the program and the cache entries hold them.
            self._query_memo, self._key_refs = {}, {}
            lookups, self._lookups = self._lookups, []
            spans, self._trace_spans, self._trace_kernel = (
                self._trace_spans, None, {})
            # Close the cache window even on failure, so an aborted
            # query's cache activity is not misattributed to the next
            # query's per-query delta.
            cache_delta = self.cache_delta = self.query_cache.window()
        if replayed is not None:
            done = replay.result
            return QueryResult(
                table, done.simulated_seconds, dict(done.device_busy),
                dict(done.link_bytes), plan, done.morsels_dispatched,
                cache_delta, done.peak_intermediate_bytes,
                dict(done.operator_rows), done.trace,
                cardinality=done.cardinality)
        timeline = self.topology.timeline()
        seconds = max(timeline.makespan, output.ready)
        link_bytes = {link.name: link.bytes_moved
                      for link in self.topology.links}
        # Spans are complete as recorded (Operator.advance).
        trace = None if spans is None else QueryTrace(
            tuple(spans), tuple(timeline.records()), seconds,
            MappingProxyType(dict(link_bytes)), self.morsels_dispatched,
            mode=program.mode)
        # Each execution starts a new ``_node_rows``: the result keeps it.
        result = QueryResult(
            table, seconds,
            {clock.resource: clock.busy_time for clock in timeline},
            link_bytes, plan, self.morsels_dispatched, cache_delta,
            self._peak_intermediate, self._node_rows, trace,
            cardinality=pair_report(program.estimated, self._node_rows))
        if keep:
            program.replay = Replay(
                self.topology.clock_state(), tuple(lookups),
                replace(result, table=None,
                        device_busy=dict(result.device_busy),
                        link_bytes=dict(result.link_bytes),
                        operator_rows=dict(result.operator_rows)))
        return result

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _replay(self, program: Program) -> tuple[Replay, Table] | None:
        """``program``'s kept timeline and result table when this
        execution may replay it: traced alike, the table still kept and
        every key that execution looked up still cached — then each lookup
        is counted as a hit here, in the kept order; else nothing is
        counted."""
        replay, cache = program.replay, self.query_cache
        if (replay is None
                or (replay.result.trace is None) == self.options.tracing
                or not cache.enabled):
            return None
        table = cache.kept(*program.output)
        return (None if table is None or not cache.get_all(replay.lookups)
                else (replay, table))

    def grant(self, *batch_rows: int) -> int:
        """The morsel size for an evaluation over the given input batch
        sizes, counting the morsels they amount to into
        :attr:`morsels_dispatched`.

        Called once per actual kernel evaluation (inside the memo, so
        cached subplans grant nothing) with the row count of every input
        batch it consumes: one for a unary operator, build and probe for a
        join.  Only :meth:`_evaluate` carves with the answer (a chain
        source, streamed through the chain).  A breaker takes its batches
        whole; its grant is a *yield grid* — the morsel boundaries at which
        a running evaluation could be interrupted — and the server's
        preemption reads it: ``QueryServer`` divides an attempt's span by
        ``morsels_dispatched`` to place a kill, so a grant that moved would
        move served simulated seconds.  Simulated seconds never observe
        morsels otherwise.
        """
        rows = self.options.morsel_rows
        for num_rows in batch_rows:
            self.morsels_dispatched += morsel_count(num_rows, rows)
        return rows

    def _memoized_kernel(self, chain: Chain,
                         run: Callable[[], _KernelResult]) -> _KernelResult:
        """Evaluate a chain's functional kernels at most once per distinct
        subplan.

        Keyed by :attr:`Chain.key`: the catalog-versioned structural key
        of the subtree rooted at the chain's top node and the chain's
        tuning, made and hashed once, at compile, so no execution builds a
        key or walks one.  Lookups go through two layers: the per-query
        overlay first (within-plan repeats, not counted as cache traffic),
        then the session-lifetime
        :class:`QueryCache` (cross-query reuse, counted as hits/misses per
        distinct subplan).  Misses evaluate the kernel and retain the
        result in the session cache, and in the overlay when the plan
        repeats the subplan; costing happens outside this cache, per
        occurrence, so simulated seconds never observe it.

        The tuning names the device-spec values the top's own stats record
        is written with (a partitioned join's pass plan, the co-processed
        join's fan-out) and the chain's relational stage count: two
        occurrences only share an evaluation when their tuning matches,
        keeping per-occurrence cost replays exact.  The key looks through
        exchanges, so occurrences placed differently — the cpu and the
        hybrid lowering of one subplan — share one entry.  Every join emits
        the canonical row order whatever its tuning, so no consumer's
        columns or records depend on an upstream tuning.

        Results whose columns are views over catalog-resident arrays
        (base-table scans, ``zero_copy``) are retained at a byte cost of 0
        since they pin no memory beyond the catalog.

        An overlay entry is evicted right after its *last* structural
        occurrence in the plan, so the per-query layer only pins
        intermediates that can still be reused within this plan; what
        outlives the query is governed solely by the session cache's LRU
        byte budget.
        """
        key, top = chain.key, chain.ops[-1]
        # A repeated subplan's occurrences left, this one included (0: the
        # key occurs once and never enters the overlay).
        left = self._key_refs.get(key, 0) if self._key_refs else 0
        result = self._query_memo.get(key) if left else None
        status = "overlay"
        morsel_delta = 0
        if result is None:
            if self.query_cache.enabled:
                self._lookups.append(key)
                result = self.query_cache.get(key)
            if result is None:
                status = "miss"
                self._kernel_ran = True
                morsels_before = self.morsels_dispatched
                result = run()
                morsel_delta = self.morsels_dispatched - morsels_before
                if self.query_cache.enabled:
                    self.query_cache.put(
                        key, result,
                        nbytes=0 if top.zero_copy else result_nbytes(result),
                        tables=referenced_tables(top.node))
            else:
                status = "hit"
            if left > 1:
                self._query_memo[key] = result
        if self._trace_spans is not None and self._owns_cache:
            # Cache warmth is a per-span diagnostic only for session-owned
            # caches: raw lookup outcomes against a server-shared cache
            # race between tenants, so served traces attribute cache
            # activity from the committed counters instead (the server's
            # "complete" event).  VOLATILE_SPAN_KEYS strips these for the
            # warm-vs-cold timing contract.
            self._trace_kernel[top.node.node_id] = (status, morsel_delta)
        if left > 1:
            self._key_refs[key] = left - 1
        elif left:
            del self._key_refs[key]
            self._query_memo.pop(key, None)
        return result  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # The driver
    # ------------------------------------------------------------------
    def _run(self, chain: Chain) -> NodeResult:
        """Execute one compiled chain and return its output batch.

        The chain is the maximal fused chain of streaming operators below
        its top node when the node starts one, else just the node — the
        one-stage case, not a second code path.  Every chain runs the same
        four steps:

        1. the build side of every join (top-down) and then the source are
           executed, so all their charges land on the simulated clocks
           first;
        2. every operator refuses what its compiled placement cannot hold
           (the join's GPU capacity check) from its inputs' recorded sizes
           — before anything streams or is cached;
        3. the functional evaluation runs inside the kernel memo, keyed at
           chain granularity, storing the boundary batch and the per-stage
           stats records (warm runs skip the evaluation and reuse both);
        4. the per-stage costs are charged bottom-up from the records,
           each op reading its own through the chain's compiled layout;
           the batch's ``rows`` and ``nbytes`` are then the record's.

        The builds are this execution's and are dropped with it.
        """
        ops = chain.ops
        builds = [None if op.build is None else self._run(op.build)
                  for op in reversed(ops)]
        builds.reverse()
        batch = (NodeResult(None, 0.0, NOWHERE) if chain.source is None
                 else self._run(chain.source))
        for op, build in zip(ops, builds):
            op.check(batch, build)
        if chain.key is None:
            columns, records = self._evaluate(chain, batch, builds)
        else:
            columns, records = self._memoized_kernel(
                chain, lambda: self._evaluate(chain, batch, builds))
        for op, build, stage in zip(ops, builds, chain.layout):
            if stage is None:  # an exchange forwards the batch as it is
                op.charge(batch, None, build)
                continue
            # The rows are recorded before the charge, whose span reads them.
            stats, nbytes, rows = records[stage]
            self._node_rows[op.node.node_id] = rows
            op.charge(batch, stats, build)
            batch.nbytes, batch.rows = nbytes, rows
        batch.columns = columns
        if chain.source is not None:
            self._peak_intermediate = max(self._peak_intermediate,
                                          batch.nbytes)
        return batch

    def _evaluate(self, chain: Chain, source: NodeResult,
                  builds: Sequence[NodeResult | None],
                  ) -> tuple[ArrayMap, tuple]:
        """Evaluate a chain over its source batch (cold runs only).

        Returns the boundary columns plus one record per relational stage
        — ``(stats, output bytes, output rows)``; an exchange has none —
        which is everything the charge replay (and a warm run) needs.  A
        breaker or source runs on its whole input.  A streaming chain
        carves the source into morsels and each morsel flows through the
        *entire* chain before the next one is touched, so intermediate
        outputs only ever exist one morsel at a time; the boundary batch
        is reassembled with the consuming concatenation to keep the
        materialization spike near the output's own size.
        """
        ops = chain.ops
        if not streams_morsels(ops[-1].node):
            columns, stats = ops[-1].run(source, builds[-1])
            out = Rows.of(columns)
            return columns, ((stats, out.nbytes(), out.num_rows),)
        stages = [(op, build, transform) for op, build in zip(ops, builds)
                  if (transform := op.begin(build)) is not None]
        if not stages:  # a lone exchange
            return source.columns, ()
        parts: list[ArrayMap] = []
        flows: list[list] = []
        for morsel in iter_morsels(source.columns,
                                   self.grant(source.rows)):
            batch = Rows.of(morsel)
            flow = []
            for _, _, transform in stages:
                out, in_bytes = transform(batch)
                flow.append((batch.num_rows, in_bytes, out.nbytes(),
                             out.num_rows))
                batch = out
            parts.append(dict(batch))  # each column gathered once
            flows.append(flow)
        records = []
        # Transpose morsels x stages, then sum each stage's four counters.
        for (op, build, _), stage_flows in zip(stages, zip(*flows)):
            in_rows, in_bytes, out_nbytes, out_rows = map(sum,
                                                          zip(*stage_flows))
            records.append((op.stats(build, in_rows, in_bytes, out_nbytes),
                            out_nbytes, out_rows))
        return concat_columns(parts), tuple(records)

    # ------------------------------------------------------------------
    # Pricing and reserving: the helpers the descriptions share
    # ------------------------------------------------------------------
    def deliver(self, batch: NodeResult, devices: Sequence[Device], *,
                whole: bool = False) -> Price:
        """Price bringing ``batch`` to the devices about to consume it.

        Each device consumes a share of the batch (all of it with
        ``whole``: a broadcast).  The split is inherited while the
        consumers' memories are the batch's holders and computed afresh
        where they differ: by memory bandwidth, except that a GPU holding
        none of the batch weighs in with the bottleneck of the route that
        feeds it.  A GPU is shipped the part of its share it does not hold
        yet, from the batch's first holder over :meth:`Topology.route`.
        CPU sockets share host memory and split what it holds by memory
        bandwidth; gathering GPU-resident bytes back to it is not charged.

        Returns the batch's residency once consumed and, per device, its
        share, the route its missing part crosses and the bytes: a pure
        function of the batch's bytes and residency, which :meth:`ship`
        reserves.
        """
        if not devices:
            return Price(batch.residency, ())
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
        legs = []
        for name, memory, device in zip(names, memories, devices):
            share = placed[memory]
            if not whole and name not in gpu_names:
                share = (share * device.spec.memory_bandwidth_gib_s
                         / host_bandwidth)
            missing = share - held.get(name, 0.0)
            route = routes.get(name) if missing > 0.0 else None
            legs.append((device, share, route,
                         0 if route is None else int(batch.nbytes * missing)))
        return Price(batch.residency if placed is held
                     else Residency(placed), tuple(legs))

    def ship(self, price: Price, earliest: float, label: str) -> list[float]:
        """Reserve the links a priced delivery crosses — the one place that
        puts bytes on a link.  A GPU must have room to stage what it is
        shipped.  Returns when each leg's share has arrived (``earliest``
        where nothing crosses)."""
        arrivals = []
        for device, _, route, payload in price.legs:
            arrival = earliest
            if route is not None:
                device.ensure_fits(payload)
                arrival = route.transfer(payload, earliest=earliest,
                                         label=label)
            arrivals.append(arrival)
        return arrivals
