"""Observability: deterministic traces, critical paths, exporters, tools.

The battery pins the PR's contracts:

* **Byte-identity** — a traced query's JSONL is byte-identical across
  replays; a served chaos epoch (faults, failovers, retries, preemption)
  exports byte-identical epoch JSONL on a same-configuration replay.
* **Warm/cold** — only the ``VOLATILE_SPAN_KEYS`` (cache status, morsel
  counts) may differ between a cold and a warm run;
  :meth:`QueryTrace.timing_jsonl` is bit-identical across warmth.
* **Neutrality** — tracing on/off never changes results, simulated
  seconds, device busy times or server reports; ``trace`` is purely
  additive.
* **Critical paths** — the backward walk names the binding device/link
  and accounts idle gaps.
* **Exporters and tools** — Chrome trace JSON round-trips, and
  ``tools/trace_tool.py`` summarizes, analyses and diffs real exports.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.engine import HAPEEngine
from repro.faults import FaultPlan
from repro.hardware import default_server
from repro.hardware.clock import TaskRecord
from repro.obs import (
    VOLATILE_SPAN_KEYS,
    EpochTrace,
    QueryTrace,
    Span,
    Tracer,
    critical_path,
)
from repro.server import QueryServer
from repro.workloads.tpch_queries import EVALUATED_QUERIES, build_query


@pytest.fixture(scope="module")
def plans(tpch_dataset):
    return {name: build_query(name, tpch_dataset).plan
            for name in EVALUATED_QUERIES}


def _traced_engine(tpch_dataset, **kwargs):
    engine = HAPEEngine(default_server(), tracing=True, **kwargs)
    engine.register_dataset(tpch_dataset.tables)
    return engine


# ----------------------------------------------------------------------
# Critical-path analysis on synthetic timelines
# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_chain_across_resources(self):
        records = [
            TaskRecord("cpu0", "scan", 0.0, 2.0),
            TaskRecord("pcie0", "copy", 2.0, 3.0),
            TaskRecord("gpu0", "join", 3.0, 7.0),
            TaskRecord("cpu1", "idle-ish", 0.0, 1.0),
        ]
        path = critical_path(records, 7.0, links=frozenset({"pcie0"}))
        assert [step.resource for step in path.steps] == [
            "cpu0", "pcie0", "gpu0"]
        assert path.binding_resource == "gpu0"
        assert path.bound == "compute"
        assert path.idle_seconds == 0.0
        assert path.resource_seconds["gpu0"] == 4.0

    def test_transfer_bound_and_idle_gap(self):
        records = [
            TaskRecord("cpu0", "scan", 0.0, 1.0),
            TaskRecord("pcie0", "copy", 2.0, 6.0),
        ]
        path = critical_path(records, 6.0, links=frozenset({"pcie0"}))
        assert path.binding_resource == "pcie0"
        assert path.bound == "transfer"
        assert path.idle_seconds == pytest.approx(1.0)
        assert "idle" in path.describe()

    def test_empty_timeline_is_idle(self):
        path = critical_path([], 0.0)
        assert path.bound == "idle"
        assert path.binding_resource == "idle"
        assert path.steps == ()


# ----------------------------------------------------------------------
# The Tracer recorder
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.event(1.0, "submit", tenant="a")
        assert not tracer
        assert tracer.drain() == []

    def test_drain_resets(self):
        tracer = Tracer()
        tracer.event(1.0, "submit", tenant="a")
        tracer.event(2.0, "admit", tenant="a")
        events = tracer.drain()
        assert [event.kind for event in events] == ["submit", "admit"]
        assert tracer.drain() == []


# ----------------------------------------------------------------------
# Per-query traces from the session
# ----------------------------------------------------------------------
class TestQueryTrace:
    def test_trace_contents(self, tpch_dataset, plans):
        engine = _traced_engine(tpch_dataset)
        result = engine.execute(plans["Q5"], "hybrid")
        trace = result.trace
        assert isinstance(trace, QueryTrace)
        assert trace.makespan == result.simulated_seconds
        assert trace.spans and trace.tasks
        ops = {span.op for span in trace.spans}
        assert "scan" in ops and "hash-join" in ops
        # Node ids are plan-local ordinals, not process-global counters.
        assert all(0 <= span.node_id < 200 for span in trace.spans)
        # PR 9's estimation data is joined onto the spans.
        estimated = [span for span in trace.spans
                     if span.est_rows is not None]
        assert estimated
        assert all(span.q_error >= 1.0 for span in estimated)
        # Session-owned cache: kernel statuses are recorded.
        assert {span.cache for span in trace.spans} & {"miss", "hit",
                                                       "overlay"}

    @pytest.mark.parametrize("mode", ("cpu", "gpu", "hybrid", "auto"))
    def test_a_trace_carries_its_mode(self, tpch_dataset, plans, mode):
        """The resolved mode is in the trace when it is made, whether the
        execution charges (cold, then all hits: kept) or replays."""
        engine = _traced_engine(tpch_dataset)
        results = [engine.execute(plans["Q5"], mode) for _ in range(3)]
        assert results[2].trace is results[1].trace is not results[0].trace
        for result in results:
            assert result.trace.mode == result.mode.value

    @pytest.mark.parametrize("mode,by_op", [
        ("cpu", {"filter-project": "cpu0", "aggregate": "cpu0",
                 "sort": "cpu0"}),
        ("gpu", {"mem-move": "cpu0", "filter-project": "distributed:gpu0,gpu1",
                 "aggregate": "distributed:gpu0,gpu1", "sort": "cpu0"}),
        # The first four-device operator finds the scan in host memory;
        # what follows it finds the GPUs' shares where they were shipped.
        ("hybrid", {"filter-project": "cpu0",
                    "aggregate": "distributed:cpu0,gpu0,gpu1",
                    "sort": "cpu0"}),
    ])
    def test_span_location_names_the_holders(self, tpch_dataset, plans,
                                             mode, by_op):
        trace = _traced_engine(tpch_dataset).execute(plans["Q1"], mode).trace
        located = {span.op: span.location for span in trace.spans}
        assert {op: located[op] for op in by_op} == by_op
        # Both aggregate phases read the same holders; a mem-move names
        # where it left the batch.
        assert len({span.location for span in trace.spans
                    if span.op == "aggregate"}) == 1
        assert [span.attrs["destination"] for span in trace.spans
                if span.op == "mem-move"] == (
            ["distributed:gpu0,gpu1"] if mode == "gpu" else [])

    @pytest.mark.parametrize("mode", ("cpu", "gpu", "hybrid"))
    def test_byte_identical_on_replay(self, tpch_dataset, plans, mode):
        first, replay = (_traced_engine(tpch_dataset).execute(
            plans["Q9"], mode).trace.to_jsonl() for _ in range(2))
        assert first == replay

    def test_warm_differs_only_in_volatile_keys(self, tpch_dataset, plans):
        engine = _traced_engine(tpch_dataset)
        cold = engine.execute(plans["Q1"], "cpu").trace
        warm = engine.execute(plans["Q1"], "cpu").trace
        assert cold.timing_jsonl() == warm.timing_jsonl()
        assert cold.to_jsonl() != warm.to_jsonl()  # miss -> hit
        statuses = {span.cache for span in warm.spans} - {None}
        assert statuses <= {"hit", "overlay"}
        for key in VOLATILE_SPAN_KEYS:
            assert f'"{key}"' not in cold.timing_jsonl()

    def test_tracing_off_is_bit_identical_and_traceless(self, tpch_dataset,
                                                        plans):
        on = _traced_engine(tpch_dataset)
        off = HAPEEngine(default_server())
        off.register_dataset(tpch_dataset.tables)
        for mode in ("cpu", "hybrid"):
            traced = on.execute(plans["Q6"], mode)
            plain = off.execute(plans["Q6"], mode)
            assert plain.trace is None
            assert traced.trace is not None
            assert traced.simulated_seconds == plain.simulated_seconds
            assert traced.device_busy == plain.device_busy
            assert traced.link_bytes == plain.link_bytes
            for column in plain.table.column_names:
                assert (traced.table.array(column).tobytes()
                        == plain.table.array(column).tobytes())

    def test_tracing_toggle_on_live_session(self, tpch_dataset, plans):
        engine = HAPEEngine(default_server())
        engine.register_dataset(tpch_dataset.tables)
        assert engine.tracing is False
        assert engine.execute(plans["Q6"], "cpu").trace is None
        engine.tracing = True
        assert engine.execute(plans["Q6"], "cpu").trace is not None

    def test_critical_path_names_binding_resource(self, tpch_dataset,
                                                  plans):
        engine = _traced_engine(tpch_dataset)
        trace = engine.execute(plans["Q9"], "gpu").trace
        path = trace.critical_path()
        assert path.binding_resource in {record.resource
                                         for record in trace.tasks}
        assert path.bound in ("compute", "transfer")
        assert path.makespan == trace.makespan
        assert path.idle_seconds >= 0.0

    def test_chrome_export_round_trips(self, tpch_dataset, plans,
                                       tmp_path):
        engine = _traced_engine(tpch_dataset)
        trace = engine.execute(plans["Q5"], "hybrid").trace
        chrome = json.loads(json.dumps(trace.to_chrome(), allow_nan=False))
        assert chrome["traceEvents"]
        phases = {event["ph"] for event in chrome["traceEvents"]}
        assert {"M", "X"} <= phases
        trace.write_chrome(tmp_path / "q5.json")
        json.loads((tmp_path / "q5.json").read_text())
        trace.write_jsonl(tmp_path / "q5.jsonl")
        lines = (tmp_path / "q5.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "trace"


# ----------------------------------------------------------------------
# Served epoch traces under chaos
# ----------------------------------------------------------------------
def _chaos_server(tpch_dataset, plans, *, tracing=True):
    fault_plan = (FaultPlan(seed=13)
                  .fail_device("gpu0", at=2e-4, recover_at=5e-3)
                  .transient_errors(rate=0.3))
    server = QueryServer(default_server(), preemption=True,
                         aging_seconds=2e-4, fault_plan=fault_plan,
                         tracing=tracing)
    server.register_dataset(tpch_dataset.tables)
    server.open_session("inter", priority="interactive",
                        max_concurrency=2, slo_p99_seconds=0.05)
    server.open_session("batch", priority="batch", max_concurrency=2)
    for name in EVALUATED_QUERIES:
        server.submit("batch", plans[name], "hybrid", label=name)
        server.submit("inter", plans[name], "gpu", label=name)
    return server


class TestEpochTrace:
    def test_chaos_epoch_byte_identical(self, tpch_dataset, plans):
        texts = []
        for _ in range(2):  # a run and its replay
            server = _chaos_server(tpch_dataset, plans)
            server.run()
            texts.append(server.last_trace.to_jsonl())
        assert texts[0] == texts[1]

    def test_epoch_trace_contents(self, tpch_dataset, plans):
        server = _chaos_server(tpch_dataset, plans)
        report = server.run()
        trace = server.last_trace
        assert isinstance(trace, EpochTrace)
        assert trace.makespan == report.makespan
        kinds = {event.kind for event in trace.events}
        # The chaos epoch exercises the full lifecycle vocabulary.
        assert {"submit", "admit", "dispatch", "complete", "failover",
                "retry", "preempt", "device_health", "slo"} <= kinds
        # The trace's rows are the report's own tickets.
        assert trace.queries is report.tickets
        assert trace.query("Q1", tenant="batch") is not None
        assert trace.occupancy
        # Completed queries carry shifted per-query traces and paths.
        paths = trace.critical_paths()
        assert paths
        assert all(path.binding_resource for path in paths.values())
        # Cache attribution rides the complete events, not the spans
        # (shared-cache lookups race between tenants).
        completes = [event for event in trace.events
                     if event.kind == "complete"]
        assert completes
        assert all("cache_hits" in event.attrs for event in completes)
        assert all(span.cache is None
                   for row in trace.queries if row.trace is not None
                   for span in row.trace.spans)

    def test_a_failed_over_ticket_traces_its_final_mode(self, tpch_dataset,
                                                        plans):
        report = _chaos_server(tpch_dataset, plans).run()
        moved = [row for row in report.tickets
                 if row.trace is not None and row.final_mode != row.mode]
        assert moved and all(row.failovers for row in moved)
        assert all(row.trace.mode == row.final_mode
                   for row in report.tickets if row.trace is not None)

    def test_slo_grading_in_event_log(self, tpch_dataset, plans):
        server = _chaos_server(tpch_dataset, plans)
        server.run()
        slo = [event for event in server.last_trace.events
               if event.kind == "slo"]
        assert len(slo) == 1  # only the interactive tenant has an SLO
        assert slo[0].attrs["tenant"] == "inter"
        assert isinstance(slo[0].attrs["met"], bool)
        assert slo[0].attrs["objective"] == 0.05

    def test_tracing_off_server_is_bit_identical(self, tpch_dataset,
                                                 plans):
        on = _chaos_server(tpch_dataset, plans, tracing=True)
        off = _chaos_server(tpch_dataset, plans, tracing=False)
        report_on = on.run()
        report_off = off.run()
        assert off.last_trace is None
        assert report_on.makespan == report_off.makespan

        def fingerprint(report):
            return [(t.ticket_id, t.status, t.submit_time, t.start_time,
                     t.finish_time, t.retries, t.failovers, t.preemptions,
                     t.result.simulated_seconds if t.result else None)
                    for t in report.tickets]

        assert fingerprint(report_on) == fingerprint(report_off)

    def test_cache_invalidation_events(self, tpch_dataset):
        server = QueryServer(default_server(), tracing=True)
        server.register_dataset(tpch_dataset.tables)
        table = tpch_dataset.tables["region"]
        server.register_table(table, replace=True)
        server.drop_table("region")
        kinds = [event.kind for event in server.tracer.drain()]
        assert kinds.count("cache_invalidation") == 2

    def test_chrome_draws_unfinished_ticket_from_submit(self, tpch_dataset,
                                                        plans):
        probe = HAPEEngine(default_server())
        probe.register_dataset(tpch_dataset.tables)
        sim = probe.execute(plans["Q9"], "cpu").simulated_seconds
        server = QueryServer(default_server(), tracing=True)
        server.register_dataset(tpch_dataset.tables)
        first = server.submit("t", plans["Q9"], "cpu", label="first")
        # Times out in its queue, behind ``first``, without ever starting.
        starved = server.submit("t", plans["Q9"], "cpu", label="starved",
                                at=sim * 0.25, deadline=sim * 0.25)
        server.run()
        assert (first.status, starved.status) == ("completed", "timed_out")
        slices = {event["args"]["ticket"]: event
                  for event in server.last_trace.to_chrome()["traceEvents"]
                  if event.get("cat") == "query"}
        assert slices[first.ticket_id]["ts"] == first.start_time * 1e6
        assert (slices[first.ticket_id]["args"]["queue_wait_s"]
                == first.queue_wait)
        drawn = slices[starved.ticket_id]
        assert drawn["ts"] == starved.submit_time * 1e6
        assert drawn["dur"] == pytest.approx(
            (starved.finish_time - starved.submit_time) * 1e6)
        assert "queue_wait_s" not in drawn["args"]

    def test_epoch_chrome_export(self, tpch_dataset, plans, tmp_path):
        server = _chaos_server(tpch_dataset, plans)
        server.run()
        chrome = json.loads(json.dumps(server.last_trace.to_chrome(),
                                       allow_nan=False))
        names = {event.get("name") for event in chrome["traceEvents"]}
        assert "failover" in names
        server.last_trace.write_chrome(tmp_path / "epoch.json")
        json.loads((tmp_path / "epoch.json").read_text())


# ----------------------------------------------------------------------
# Metrics satellites: extra gauges and per-tenant cache counters
# ----------------------------------------------------------------------
class TestMetricsSatellites:
    def test_extra_and_tenant_cache_in_exports(self, tpch_dataset, plans):
        server = QueryServer(default_server())
        server.register_dataset(tpch_dataset.tables)
        server.open_session("inter", priority="interactive")
        server.open_session("batch", priority="batch")
        for name in EVALUATED_QUERIES:
            server.submit("batch", plans[name], "hybrid", label=name)
            server.submit("inter", plans[name], "cpu", label=name)
        server.run()
        snapshot = server.metrics()
        assert snapshot.extra["epoch_median_q_error"] >= 1.0
        occupancy = {key: value for key, value in snapshot.extra.items()
                     if key.startswith("device_occupancy")}
        assert occupancy
        assert all(value > 0.0 for value in occupancy.values())
        payload = snapshot.as_dict()
        assert payload["extra"] == snapshot.extra
        json.loads(snapshot.to_json())
        text = snapshot.to_prometheus()
        assert "repro_epoch_median_q_error " in text
        assert 'repro_device_occupancy{device="cpu0"}' in text
        assert 'repro_tenant_cache_hits_total{tenant="batch"}' in text
        assert 'repro_tenant_cache_misses_total{tenant="inter"}' in text
        tenant_cache = server.query_cache.tenant_counters()
        for tenant in ("inter", "batch"):
            samples = snapshot.tenants[tenant]
            assert samples["cache_hits_total"] == tenant_cache[tenant].hits
            assert (samples["cache_misses_total"]
                    == tenant_cache[tenant].misses)

    def test_empty_snapshot_still_renders(self):
        server = QueryServer(default_server())
        snapshot = server.metrics()
        assert snapshot.extra == {}
        assert "extra" in snapshot.as_dict()
        snapshot.to_prometheus()


# ----------------------------------------------------------------------
# The trace_tool CLI on real exports
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "trace_tool.py"
    spec = importlib.util.spec_from_file_location("trace_tool", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["trace_tool"] = module
    spec.loader.exec_module(module)
    return module


class TestTraceTool:
    @pytest.fixture()
    def exports(self, tpch_dataset, plans, tmp_path):
        engine = _traced_engine(tpch_dataset)
        engine.execute(plans["Q5"], "hybrid").trace.write_jsonl(
            tmp_path / "query.jsonl")
        server = _chaos_server(tpch_dataset, plans)
        server.run()
        server.last_trace.write_jsonl(tmp_path / "epoch.jsonl")
        return tmp_path

    def test_summarize(self, trace_tool, exports, capsys):
        assert trace_tool.main(
            ["summarize", str(exports / "query.jsonl")]) == 0
        assert trace_tool.main(
            ["summarize", str(exports / "epoch.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "busy cpu0" in out and "event kinds" in out

    def test_critical_path(self, trace_tool, exports, capsys):
        assert trace_tool.main(
            ["critical-path", str(exports / "query.jsonl")]) == 0
        assert trace_tool.main(
            ["critical-path", str(exports / "epoch.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "bound by" in out

    def test_diff(self, trace_tool, exports, capsys):
        epoch = exports / "epoch.jsonl"
        same = exports / "same.jsonl"
        same.write_text(epoch.read_text())
        assert trace_tool.main(["diff", str(epoch), str(same)]) == 0
        lines = epoch.read_text().splitlines()
        lines[10] = lines[10].replace("{", '{"x":1,', 1)
        mutated = exports / "mutated.jsonl"
        mutated.write_text("\n".join(lines) + "\n")
        assert trace_tool.main(["diff", str(epoch), str(mutated)]) == 1
        out = capsys.readouterr().out
        assert "diverge at line 11" in out
        truncated = exports / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:5]) + "\n")
        assert trace_tool.main(["diff", str(epoch), str(truncated)]) == 1
