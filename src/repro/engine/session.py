"""The HAPE engine facade (the user-facing *session*).

:class:`HAPEEngine` ties the pieces together: a simulated server topology, a
catalog of registered tables, the heterogeneity-aware optimizer, the
pipeline extraction and the executor.  A query is submitted as a logical
plan; the result — the executor's
:class:`~repro.engine.executor.QueryResult`, re-exported here, with the
mode, pipelines and cardinality report set — bundles the actual output
table with the simulated timing information the evaluation figures are
built from.

One engine instance is one session: it owns the catalog, the
session-lifetime cross-query kernel cache
(:mod:`repro.engine.querycache`) and the execution knobs that hold across
queries (:data:`SESSION_KNOBS`, each documented on its
:class:`~repro.engine.executor.ExecutorOptions` field).  Repeated
dashboard-style workloads therefore get warmer with every query: kernel
results computed once (a dimension scan, a filtered build side) are reused
functionally by later queries until the catalog invalidates them or the
LRU budget evicts them.  The :data:`Session` alias exists for callers who
think in session terms.

The session also keeps its *decisions*: one :class:`PreparedPlan` per
(logical plan, resolved mode) holds the physical plan, its pipelines and,
from its first execution on, the executor's compiled program (span
skeleton and the estimated half of the cardinality report included), so
a query whose plan *object* is executed again is planned and compiled
once (an equal but rebuilt plan is planned anew); one
:class:`LogicalRecord` per logical plan holds what no mode changes — its
estimates and the working set admission and ``"auto"`` read.  Records
are dropped when the catalog registers, replaces or drops a table (its
table versions change), when device health, a GPU's memory or a link's
bandwidth changes, when the optimizer or executor options change, and
one by one as their logical plans are collected (``docs/CACHING.md``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

from ..codegen.pipeline import Pipeline, break_into_pipelines
from ..hardware.topology import Topology, default_server
from ..relational.logical import LogicalPlan
from ..relational.physical import PhysicalOp
from ..stats.cardinality import WorkingSetEstimate
from ..storage.catalog import Catalog
from ..storage.table import Table
from .executor import Executor, ExecutorOptions, Program, QueryResult
from .modes import ExecutionMode
from .optimizer import Optimizer, OptimizerOptions
from .querycache import QueryCacheStats

#: The :class:`ExecutorOptions` fields a session exposes as constructor
#: keywords and as get/set attributes.
SESSION_KNOBS = ("morsel_rows", "cache_budget_bytes", "tracing")


def _knob(name: str) -> property:
    """A session attribute that reads/re-tunes one executor option."""
    def get(self: "HAPEEngine"):
        return getattr(self.executor.options, name)

    def set(self: "HAPEEngine", value: object) -> None:
        self.executor.retune(**{name: value})

    return property(get, set, doc=(
        f"The session's ``{name}`` knob: reads "
        f":attr:`ExecutorOptions.{name}` (documented there); assigning "
        "re-tunes the executor in place for the following queries."))


class PreparedPlan(NamedTuple):
    """Every decision one (logical plan, mode) pair takes before it runs.

    Each field is a pure function of the logical plan, the mode, the
    optimizer and executor options, the catalog versions of the tables it
    reads and device health, so it is built on the first request and read
    by every later ``plan`` / ``explain`` / ``execute`` until one of those
    changes.  Prices, the span skeleton and the estimated report are
    derived once; clocks are reserved and actual rows paired with the
    estimated report per charged execute (a replay restores both):
    results, simulated seconds, reports and traces are those of a fresh
    planning.
    """

    physical: PhysicalOp
    pipelines: list[Pipeline]
    #: The executor's compiled program (chains, placement, memo keys and
    #: tunings, span skeleton, pricing memos) with the estimated half of
    #: the cardinality report (``estimate_physical(physical)``'s items in
    #: node order, :attr:`Program.estimated`) and the mode its traces
    #: carry (:attr:`Program.mode`), made by the first ``execute``;
    #: ``None`` until then.
    program: Program | None = None


@dataclass(slots=True)
class LogicalRecord:
    """What no mode changes about one logical plan, kept under a stamp:
    its ``estimate_nodes`` pass, its working set (folded from that pass on
    first use) and a :class:`PreparedPlan` per mode it was asked for."""

    #: A weak reference to the plan the record is filed for.
    plan: weakref.ref
    estimates: dict
    working_set: WorkingSetEstimate | None = None
    modes: dict[ExecutionMode, PreparedPlan] = field(default_factory=dict)


class HAPEEngine:
    """Heterogeneity-conscious Analytical query Processing Engine.

    The engine facade doubles as the *session* object: construct it once,
    register tables, then submit any number of logical plans.  Kernel
    results are cached across queries (see
    :mod:`repro.engine.querycache`), so repeated plans get functionally
    cheaper while reporting unchanged simulated timings.

    Parameters
    ----------
    topology:
        The simulated server to run on; defaults to the paper's testbed
        (2 CPU sockets + 2 GPUs, :func:`~repro.hardware.default_server`).
    optimizer_options / executor_options:
        Fine-grained knob records; usually left at their defaults.
    morsel_rows / cache_budget_bytes / tracing:
        The session knobs.  Each is the :class:`ExecutorOptions` field of
        the same name — documented there, once — and overrides
        ``executor_options`` when both are given.  After construction the
        same names are attributes: reading returns the value in force,
        assigning re-tunes the live session.  All three are
        wall-clock/working-set only: results and simulated seconds are
        bit-identical for every setting, and a bad value raises
        ``ValueError`` whichever way it arrives.
    catalog / query_cache:
        Normally omitted — the session owns a private catalog and cache.
        A :class:`~repro.server.QueryServer` passes its *shared* catalog
        and :class:`~repro.server.SharedQueryCache` here so tenant
        sessions see one table registry and reuse each other's warm
        kernel results; such sessions cannot re-tune the cache budget
        (it belongs to the server).
    workers:
        Not a knob: one thread drives a session.  Kept for callers that
        still pass ``workers=1``; any other value raises ``ValueError``.
    """

    def __init__(self, topology: Topology | None = None, *,
                 optimizer_options: OptimizerOptions | None = None,
                 executor_options: ExecutorOptions | None = None,
                 catalog: Catalog | None = None,
                 query_cache=None,
                 workers: int = 1,
                 **knobs: object) -> None:
        if workers != 1:
            raise ValueError(f"one thread drives a session: workers must "
                             f"be 1, got {workers!r}")
        unknown = knobs.keys() - SESSION_KNOBS
        if unknown:
            raise TypeError("HAPEEngine() got unexpected keyword arguments "
                            f"{sorted(unknown)}")
        if query_cache is not None and catalog is None:
            # A shared cache is keyed by (and invalidated through) the
            # catalog it was built against; pairing it with a private
            # catalog would collide version counters across sessions and
            # silently serve one catalog's rows for another's tables.
            raise ValueError(
                "query_cache requires the shared catalog it is keyed "
                "against; pass both (a QueryServer does)")
        self.topology = topology if topology is not None else default_server()
        self.catalog = catalog if catalog is not None else Catalog()
        self.optimizer = Optimizer(self.topology, self.catalog,
                                   optimizer_options)
        self.executor = Executor(self.topology, self.catalog, executor_options,
                                 query_cache=query_cache)
        self.executor.retune(**knobs)
        #: ``(stamp, {id(logical plan): LogicalRecord})``: the records
        #: made under one stamp (see :meth:`_plan_records`).
        self._records: tuple[tuple, dict[int, LogicalRecord]] = ((), {})

    morsel_rows = _knob("morsel_rows")
    cache_budget_bytes = _knob("cache_budget_bytes")
    tracing = _knob("tracing")

    @property
    def cache_stats(self) -> QueryCacheStats:
        """Session-lifetime snapshot of the query cache (counters + size)."""
        return self.executor.query_cache.stats()

    def clear_query_cache(self) -> None:
        """Drop every cached kernel result (a session cache reset).

        Subsequent queries run cold again.  Unlike catalog invalidation
        this is not an observable cache event: counters are untouched.
        """
        self.executor.query_cache.clear()

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------
    def register_table(self, table: Table, *, replace: bool = False) -> None:
        """Register a table so plans can scan it.

        Re-registering an existing name requires ``replace=True`` and
        invalidates exactly the cached kernel results that read the
        replaced table (see :meth:`repro.storage.catalog.Catalog.register`
        for the invalidation contract); cached results over other tables
        stay warm.
        """
        self.catalog.register(table, replace=replace)

    def register_dataset(self, tables: dict[str, Table], *,
                         replace: bool = False) -> None:
        """Register a whole dataset (e.g. the TPC-H tables) at once."""
        for table in tables.values():
            self.register_table(table, replace=replace)

    def drop_table(self, name: str) -> None:
        """Drop a table; cached results that read it are invalidated."""
        self.catalog.drop(name)

    # ------------------------------------------------------------------
    # Planning and execution
    # ------------------------------------------------------------------
    def resolve_mode(self, logical: LogicalPlan,
                     mode: ExecutionMode | str) -> ExecutionMode:
        """Parse a mode request, resolving ``"auto"`` from estimated work.

        ``"auto"`` asks the optimizer to pick cpu/gpu/hybrid from the
        statistics-backed working set kept on the plan's records
        (:meth:`repro.engine.optimizer.Optimizer.choose_mode`); every
        other spelling parses as usual.
        """
        try:
            return ExecutionMode.parse(mode)
        except ValueError:
            if not (isinstance(mode, str) and mode.lower() == "auto"):
                raise
        return self.optimizer.choose_mode(logical, self.working_set(logical))

    def _plan_records(self, logical: LogicalPlan) -> LogicalRecord:
        """``logical``'s :class:`LogicalRecord`.

        Records are made under a stamp: the catalog's revision (its
        table versions), the topology's health fingerprint and the
        optimizer and executor options.  A call under another stamp starts
        an empty set, swapped in whole.  While nothing changed, the stamp
        is built from the same objects and compares in constant time.

        Logical plans hold dicts and cannot be dict keys, so records are
        filed under ``id(plan)`` beside a weak reference to the plan: a
        collected plan's records go before its ``id`` can be reused.
        """
        stamp = (self.optimizer.options, self.executor.options,
                 self.catalog.revision, self.topology.health_fingerprint())
        taken, records = self._records
        if taken != stamp:
            records = {}
            self._records = (stamp, records)
        key = id(logical)
        record = records.get(key)
        if record is None or record.plan() is not logical:
            record = records[key] = LogicalRecord(
                weakref.ref(logical, lambda _, key=key: records.pop(key, None)),
                self.optimizer.estimator.estimate_nodes(logical))
        return record

    def _prepared(self, logical: LogicalPlan, mode: ExecutionMode, *,
                  compiled: bool = False) -> PreparedPlan:
        """The record of (``logical``, ``mode``); a miss plans the query.
        With ``compiled`` the record carries its program, compiled here
        the first time."""
        record = self._plan_records(logical)
        prepared = record.modes.get(mode)
        if prepared is None:
            physical = self.optimizer.optimize(logical, mode, record.estimates)
            prepared = record.modes[mode] = PreparedPlan(
                physical, break_into_pipelines(physical))
        if compiled and prepared.program is None:
            program = self.executor.compile(prepared.physical)
            program.mode = mode.value
            program.estimated = sorted(self.optimizer.estimator
                                       .estimate_physical(prepared.physical)
                                       .items())
            prepared = record.modes[mode] = prepared._replace(program=program)
        return prepared

    def working_set(self, logical: LogicalPlan) -> WorkingSetEstimate:
        """``logical``'s estimated working set, folded from its estimates
        once and kept on its records: what a server's admission sizes a
        submission by and what ``"auto"`` picks a mode from."""
        record = self._plan_records(logical)
        if record.working_set is None:
            record.working_set = self.optimizer.estimator.working_set(
                logical, record.estimates)
        return record.working_set

    def plan(self, logical: LogicalPlan,
             mode: ExecutionMode | str = ExecutionMode.HYBRID) -> PhysicalOp:
        """The physical plan :meth:`execute` runs, without running it.

        Read from the prepared record of (``logical``, resolved mode), so
        repeated calls return the same object until the record is
        dropped; treat it as read-only.
        """
        return self._prepared(logical, self.resolve_mode(logical, mode)).physical

    def explain(self, logical: LogicalPlan,
                mode: ExecutionMode | str = ExecutionMode.HYBRID) -> str:
        """Human-readable physical plan plus its pipelines (from the same
        prepared record :meth:`plan` and :meth:`execute` read)."""
        prepared = self._prepared(logical, self.resolve_mode(logical, mode))
        return "\n".join([prepared.physical.pretty(), "", "pipelines:"] + [
            "  " + pipeline.describe() for pipeline in prepared.pipelines])

    def execute(self, logical: LogicalPlan,
                mode: ExecutionMode | str = ExecutionMode.HYBRID) -> QueryResult:
        """Optimize, generate and execute a query on the simulated server.

        Runs the full stack: heterogeneity-aware optimization for ``mode``
        (``"cpu"``, ``"gpu"`` or ``"hybrid"``), pipeline extraction, and
        morsel-driven execution on the simulated topology — with kernel
        evaluations served from the session's cross-query cache when a
        structurally identical subplan already ran against the same
        catalog state.  Planning, pipelines and estimates come from the
        prepared record of (``logical``, resolved mode), and so does the
        compiled program: a repeated query only looks up kernels and
        reserves clocks, or replays the timeline its program kept.  The
        returned :class:`QueryResult` carries the functional answer, the
        simulated timing/utilization breakdown, the cardinality report and
        the cache counters for this query.
        """
        mode = self.resolve_mode(logical, mode)
        prepared = self._prepared(logical, mode, compiled=True)
        result = self.executor.execute(prepared.physical, prepared.program)
        result.mode, result.pipelines = mode, prepared.pipelines
        return result


#: Session-centric alias: one :class:`HAPEEngine` instance is one session
#: (own catalog, own query cache, own execution knobs such as
#: ``morsel_rows`` and ``cache_budget_bytes``).
Session = HAPEEngine
