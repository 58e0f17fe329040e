"""Single-session TPC-H workloads: ``tpch_cold``, ``tpch_warm``, ``tpch_pressure``.

All three run Q1/Q5/Q6/Q9 x {cpu, hybrid, gpu} through one
:class:`~repro.engine.HAPEEngine` session and differ only in how the
cross-query kernel cache is used:

* ``tpch_cold`` — cache off: the kernels do nearly all the work;
* ``tpch_warm`` — default cache, primed: every kernel is a hit, so what is
  left is optimizer + estimation + cost charging + lookup + scheduling;
* ``tpch_pressure`` — a budget about half of what fits everything, driven
  by a seeded Zipf sequence from an empty cache: evictions and recompute.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.codegen import break_into_pipelines
from repro.engine import HAPEEngine
from repro.hardware import default_server
from repro.operators import kernel_counts, reset_kernel_counts
from repro.relational import execute_logical
from repro.stats import build_report
from repro.storage import generate_tpch
from repro.workloads import all_queries

from . import layers
from .harness import Clock, Recorder, Tally, geomean, host_seconds, median

MODES = ("cpu", "hybrid", "gpu")
#: LRU budget of ``tpch_pressure`` per unit of scale factor: 32 MB at
#: SF 0.05, where everything fits in 58.8 MB.
PRESSURE_BUDGET_BYTES_PER_SF = 640_000_000
#: Coprime with the 12 pairs: ranks alternate queries and modes.
PRESSURE_RANK_STRIDE = 5
#: Draws the phases at which the pairs recur; 121 misses of 294 lookups,
#: the median of twenty draws.
PRESSURE_PHASE_SEED = 5
EXTRA_PASSES = 3


@dataclass
class TpchState:
    dataset: object
    engine: HAPEEngine
    queries: dict
    pairs: list[tuple[str, str]]
    #: Indices into ``pairs``: the executions of one timed unit, in order.
    sequence: list[int]
    primed: dict | None = None
    cold_sims: dict | None = None


def execute_staged(engine: HAPEEngine, plan, mode: str, rec: Recorder):
    """``Session.execute`` taken apart, one span per layer it calls."""
    with rec.span("session.execute"):
        with rec.span("optimizer.plan"):
            physical = engine.plan(plan, mode)
        with rec.span("codegen.pipelines"):
            pipelines = break_into_pipelines(physical)
        with rec.span("executor.execute"):
            result = engine.executor.execute(physical)
        with rec.span("stats.estimate"):
            report = build_report(
                engine.optimizer.estimator.estimate_physical(physical),
                result.operator_rows)
    return result, report, len(pipelines)


def same_columns(left, right) -> bool:
    return left.column_names == right.column_names and all(
        left.array(name).tobytes() == right.array(name).tobytes()
        for name in left.column_names)


class TpchWorkload:
    def __init__(self, name: str, *, scale_factor: float,
                 cache: str, draws: int | None = None) -> None:
        self.name = name
        self.scale_factor = scale_factor
        #: ``"off"``, ``"default"`` or ``"pressure"``.
        self.cache = cache
        self.draws = draws

    @property
    def predictions(self) -> list[tuple]:
        """Printed with the traced pass: the bypass side of the cache pair."""
        return {
            "off": [
                ("querycache.hits == 0 (budget 0 records no lookups)",
                 lambda m: m["querycache.hits"] == 0),
                ("executor.kernel_share > 0.9",
                 lambda m: m["executor.kernel_share"] > 0.9)],
            "default": [
                ("querycache.misses == 0 over the timed passes",
                 lambda m: m["querycache.misses"] == 0)],
        }.get(self.cache, [])

    # ------------------------------------------------------------------
    def _engine(self, cache: str) -> HAPEEngine:
        knobs = {}
        if cache == "off":
            knobs["cache_budget_bytes"] = 0
        elif cache == "pressure":
            knobs["cache_budget_bytes"] = int(
                PRESSURE_BUDGET_BYTES_PER_SF * self.scale_factor)
        return HAPEEngine(default_server(), workers=1, **knobs)

    def _sequence(self, pairs: int) -> list[int]:
        if self.draws is None:
            return list(range(pairs))
        # Zipf(1/rank) popularity: the draws are apportioned to the ranks
        # (largest remainder) and the ranking is a fixed stride through the
        # pairs.  Each pair recurs at an even interval, a dashboard
        # refreshing at its own rate, at a phase that is the same for every
        # --seed: the order decides hits, evictions and recompute, and an
        # LRU cache at half of what fits is chaotic in it.  (Phases drawn
        # from the seed move wall_s by 30 % between seeds, sampling the
        # draws moves sim_s by 40 %.)  The seed draws the data.
        share = 1.0 / np.arange(1, pairs + 1)
        quota = self.draws * share / share.sum()
        count = np.floor(quota).astype(int)
        short = self.draws - int(count.sum())
        count[np.argsort(quota - count, kind="stable")[::-1][:short]] += 1
        phase = np.random.default_rng(PRESSURE_PHASE_SEED).random(pairs)
        due = sorted(
            ((turn + phase[rank]) / count[rank],
             (PRESSURE_RANK_STRIDE * rank) % pairs)
            for rank in range(pairs) for turn in range(count[rank]))
        return [index for _, index in due]

    def setup(self, seed: int, rec: Recorder) -> TpchState:
        with rec.span("storage.generate"):
            dataset = generate_tpch(self.scale_factor, seed=seed)
        engine = self._engine(self.cache)
        with rec.span("storage.register"):
            engine.register_dataset(dataset.tables)
        queries = all_queries(dataset)
        pairs = [(name, mode) for name in queries for mode in MODES]
        state = TpchState(dataset, engine, queries, pairs,
                          self._sequence(len(pairs)))
        state.primed = self.unit(state, Clock(), Recorder(False), Tally())
        return state

    # ------------------------------------------------------------------
    def check(self, state: TpchState, tally: Tally, traced: bool) -> None:
        cold = state.engine
        if self.cache != "off":
            cold = self._engine("off")
            cold.register_dataset(state.dataset.tables)
        references = {name: execute_logical(query.plan, cold.catalog)
                      for name, query in state.queries.items()}
        state.cold_sims = {}
        for name, mode in state.pairs:
            plan = state.queries[name].plan
            result = cold.execute(plan, mode)
            state.cold_sims[name, mode] = result.simulated_seconds
            tally.check(result.table.equals(references[name],
                                            check_order=False),
                        f"{name}/{mode} differs from the reference executor")
            if cold is not state.engine:
                cached = state.engine.execute(plan, mode)
                tally.check(
                    cached.simulated_seconds == result.simulated_seconds
                    and same_columns(cached.table, result.table),
                    f"{name}/{mode}: {self.cache} cache differs from cold")
            if traced:
                staged, _, _ = execute_staged(cold, plan, mode,
                                              Recorder(False))
                tally.check(
                    staged.simulated_seconds == result.simulated_seconds
                    and staged.device_busy == result.device_busy
                    and same_columns(staged.table, result.table),
                    f"{name}/{mode}: staged execution differs from "
                    f"engine.execute")
        self._check_sims(state, state.primed, tally)

    def _check_sims(self, state: TpchState, facts: dict,
                    tally: Tally) -> None:
        cold = [state.cold_sims[state.pairs[index]]
                for index in state.sequence]
        tally.check(facts["sims"] == cold,
                    "simulated seconds differ from a cold session")

    # ------------------------------------------------------------------
    def unit(self, state: TpchState, clock: Clock, rec: Recorder,
             tally: Tally) -> dict:
        engine = state.engine
        cpus = {device.name for device in engine.topology.cpus()}
        gpus = {device.name for device in engine.topology.gpus()}
        if self.cache == "pressure":
            engine.clear_query_cache()
        reset_kernel_counts()
        facts = {"sims": [], "q_errors": [], "sim_cpu_busy": 0.0,
                 "sim_gpu_busy": 0.0, "sim_link_bytes": 0, "morsels": 0,
                 "peak_intermediate": 0, "hits": 0, "misses": 0,
                 "evicted": 0, "pipelines": 0}
        for position, index in enumerate(state.sequence):
            name, mode = state.pairs[index]
            plan = state.queries[name].plan
            # A drawn pair recurs within the unit, as a hit or a miss
            # depending on where: the operation is the position.
            label = (f"{name}/{mode}" if self.draws is None
                     else f"{position:02d}:{name}/{mode}")
            with clock.op(label):
                if rec.enabled:
                    result, report, pipelines = execute_staged(
                        engine, plan, mode, rec)
                else:
                    result = engine.execute(plan, mode)
                    report, pipelines = (result.cardinality,
                                         len(result.pipelines))
            facts["sims"].append(result.simulated_seconds)
            facts["q_errors"].extend(op.q_error for op in report.operators)
            for resource, busy in result.device_busy.items():
                if resource in cpus:
                    facts["sim_cpu_busy"] += busy
                elif resource in gpus:
                    facts["sim_gpu_busy"] += busy
            facts["sim_link_bytes"] += sum(result.link_bytes.values())
            facts["morsels"] += result.morsels_dispatched
            facts["peak_intermediate"] = max(
                facts["peak_intermediate"], result.peak_intermediate_bytes)
            facts["hits"] += result.cache.hits
            facts["misses"] += result.cache.misses
            facts["evicted"] += result.cache.evicted
            facts["pipelines"] += pipelines
        facts["kernel_calls"] = sum(kernel_counts().values())
        tally.ran(len(state.sequence))
        if state.cold_sims is not None:
            self._check_sims(state, facts, tally)
        return facts

    def sim_seconds(self, facts: dict) -> float:
        return sum(facts["sims"])

    def operation_seconds(self, floors: dict[str, float]) -> list[float]:
        """Per (query, mode) pair: its mean host seconds per execution."""
        pairs: dict[str, list[float]] = {}
        for label, floor in floors.items():
            pairs.setdefault(label.rpartition(":")[2], []).append(floor)
        return [sum(each) / len(each) for each in pairs.values()]

    # ------------------------------------------------------------------
    def layers(self, state: TpchState, run) -> dict[str, float]:
        rec, facts = run.rec, run.facts
        staged_ms = {name: rec.floor_ms(name) for name in (
            "optimizer.plan", "codegen.pipelines", "executor.execute",
            "stats.estimate")}
        lookups = facts["hits"] + facts["misses"]
        hybrid_vs_cpu = geomean(
            state.cold_sims[name, "cpu"] / state.cold_sims[name, "hybrid"]
            for name in state.queries)
        metrics = {
            "storage.generate_s": rec.setup_seconds("storage.generate"),
            "storage.register_s": rec.setup_seconds("storage.register"),
            "storage.table_mb": state.dataset.total_bytes / 1e6,
            "stats.estimate_ms": staged_ms["stats.estimate"],
            "stats.q_error_median": median(facts["q_errors"]),
            "stats.q_error_max": max(facts["q_errors"]),
            "optimizer.plan_ms": staged_ms["optimizer.plan"],
            "optimizer.sim_hybrid_vs_cpu": hybrid_vs_cpu,
            "codegen.pipelines_ms": staged_ms["codegen.pipelines"],
            "codegen.pipelines": facts["pipelines"],
            "executor.execute_ms": staged_ms["executor.execute"],
            # Best un-staged unit minus best staged unit: a residual of
            # two nearly equal numbers, so only its sign and size class
            # mean anything.
            "session.self_ms": 1e3 * (
                min(run.reference.unit_ops)
                - min(map(sum, zip(*map(rec.per_unit, staged_ms))))),
            "executor.kernel_calls": facts["kernel_calls"],
            "executor.morsels": facts["morsels"],
            "executor.peak_intermediate_mb":
                facts["peak_intermediate"] / 1e6,
            "querycache.hits": facts["hits"],
            "querycache.misses": facts["misses"],
            "querycache.evicted": facts["evicted"],
            "querycache.hit_ratio":
                facts["hits"] / lookups if lookups else 0.0,
            "querycache.bytes_used_mb":
                state.engine.cache_stats.bytes_used / 1e6,
            "hardware.sim_cpu_busy_s": facts["sim_cpu_busy"],
            "hardware.sim_gpu_busy_s": facts["sim_gpu_busy"],
            "hardware.sim_link_mb": facts["sim_link_bytes"] / 1e6,
        }
        if self.cache == "off":
            metrics.update(self._cold_layers(state, run, staged_ms))
        return metrics

    def _cold_layers(self, state: TpchState, run, staged_ms) -> dict:
        """Probes recorded once, beside the workload the kernels dominate."""
        engine = state.engine
        metrics = {"stats.collect_s":
                   layers.stats_collect_seconds(state.dataset)}
        metrics.update(layers.relational_keys(state.dataset))
        metrics.update(layers.tpch_kernels(engine, state.dataset,
                                           state.queries))

        # executor.kernel_share: what a primed default cache takes away.
        warm = dataclasses.replace(state, engine=self._engine("default"),
                                   cold_sims=None)
        warm.engine.register_dataset(state.dataset.tables)
        warm_rec = Recorder(True)
        for unit in range(-1, EXTRA_PASSES):
            warm_rec.unit = unit
            self.unit(warm, Clock(), warm_rec, Tally())
        metrics["executor.kernel_share"] = 1.0 - (
            warm_rec.floor_ms("executor.execute")
            / staged_ms["executor.execute"])

        metrics["workers.wall_ratio_w2"], _ = self._knob_ratio(
            state, "workers", 1, 2)
        overhead, results = self._knob_ratio(state, "tracing", False, True)
        traces = [result.trace for result in results]
        start = host_seconds()
        for trace in traces:
            trace.to_jsonl()
        metrics.update({
            "obs.export_ms": (host_seconds() - start) * 1e3,
            "obs.tracing_overhead_pct": (overhead - 1.0) * 100.0,
            "obs.spans": sum(len(trace.spans) for trace in traces),
            "obs.events": 0,
        })
        return metrics

    def _knob_ratio(self, state: TpchState, knob: str, off, on
                    ) -> tuple[float, list]:
        """Floor of a unit with ``knob`` on over its floor with it off.

        The two settings alternate pass by pass, so both see the same
        stretch of host weather.  Also returns the last ``on`` pass.
        """
        clocks = {off: Clock(), on: Clock()}
        for _ in range(EXTRA_PASSES):
            for setting, clock in clocks.items():
                setattr(state.engine, knob, setting)
                with clock.unit():
                    results = []
                    for name, mode in map(state.pairs.__getitem__,
                                          state.sequence):
                        with clock.op(f"{name}/{mode}"):
                            results.append(state.engine.execute(
                                state.queries[name].plan, mode))
        setattr(state.engine, knob, off)
        return (clocks[on].floor_seconds() / clocks[off].floor_seconds(),
                results)
