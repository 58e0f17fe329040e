#!/usr/bin/env python
"""Deterministic tracing tour: spans, epoch events, critical paths.

Walks the observability subsystem end to end (see
``docs/OBSERVABILITY.md``):

1. a traced solo query: operator-level spans with placement, busy
   slices, est-vs-actual cardinalities and cache status, plus the
   critical path naming the device or link that bounded the makespan;
2. the determinism contract: the exported JSONL is byte-identical
   across a replay;
3. warm vs cold: a warm run differs only in the declared
   ``VOLATILE_SPAN_KEYS``; the timing view is byte-identical;
4. tracing off: ``result.trace`` is ``None`` and simulated seconds are
   bit-identical — tracing records, it never re-times;
5. a served chaos epoch (device outage + transient faults + preemption)
   traced at several worker counts: the full lifecycle event log, all
   byte-identical, with per-query critical paths, Chrome-trace export
   and the metrics satellites (tenant cache counters, derived gauges).

Run with ``PYTHONPATH=src python examples/tracing_tour.py`` (or
``make examples``).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.engine import HAPEEngine  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.hardware import default_server  # noqa: E402
from repro.obs import VOLATILE_SPAN_KEYS  # noqa: E402
from repro.server import QueryServer  # noqa: E402
from repro.storage import generate_tpch  # noqa: E402
from repro.workloads import all_queries  # noqa: E402

SCALE_FACTOR = 0.01
SEED = 2019


def main() -> int:
    dataset = generate_tpch(SCALE_FACTOR, seed=SEED)
    queries = all_queries(dataset)

    # ------------------------------------------------------------------
    # 1. A traced solo query: spans and the critical path.
    # ------------------------------------------------------------------
    engine = HAPEEngine(default_server(), cache_budget_bytes=0,
                        tracing=True)
    engine.register_dataset(dataset.tables)
    result = engine.execute(queries["Q5"].plan, "hybrid")
    trace = result.trace
    print("== Q5 hybrid, traced ==")
    print(f"{len(trace.spans)} operator spans, "
          f"{len(trace.tasks)} resource busy slices, "
          f"makespan {trace.makespan * 1e3:.3f}ms")
    for span in trace.spans[:4]:
        est = ("" if span.est_rows is None
               else f" est_rows={span.est_rows:.0f} q={span.q_error:.2f}")
        print(f"  node {span.node_id:2d} {span.op:<14s} "
              f"[{span.start * 1e3:8.3f}, {span.end * 1e3:8.3f}]ms "
              f"on {','.join(span.devices)}{est}")
    path = trace.critical_path()
    print(path.describe())
    assert path.binding_resource

    # ------------------------------------------------------------------
    # 2. Byte-identity across a replay.
    # ------------------------------------------------------------------
    def solo_jsonl() -> str:
        eng = HAPEEngine(default_server(), cache_budget_bytes=0,
                         tracing=True)
        eng.register_dataset(dataset.tables)
        return eng.execute(queries["Q5"].plan, "hybrid").trace.to_jsonl()

    run, replay = solo_jsonl(), solo_jsonl()
    assert run == replay
    print(f"\nJSONL export byte-identical across a replay "
          f"({len(run.splitlines())} lines)")

    # ------------------------------------------------------------------
    # 3. Warm vs cold: only the declared volatile keys move.
    # ------------------------------------------------------------------
    cached = HAPEEngine(default_server(), tracing=True)
    cached.register_dataset(dataset.tables)
    cold = cached.execute(queries["Q5"].plan, "hybrid")
    warm = cached.execute(queries["Q5"].plan, "hybrid")
    assert warm.trace.timing_jsonl() == cold.trace.timing_jsonl()
    changed: set[str] = set()
    for left, right in zip(cold.trace.to_jsonl().splitlines(),
                           warm.trace.to_jsonl().splitlines()):
        a, b = json.loads(left), json.loads(right)
        changed.update(key for key in a if a[key] != b.get(key))
    assert changed <= set(VOLATILE_SPAN_KEYS)
    print(f"warm run differs from cold only in {sorted(changed)} "
          f"(VOLATILE_SPAN_KEYS); timing view byte-identical")

    # ------------------------------------------------------------------
    # 4. Tracing off: no trace, nothing re-timed.
    # ------------------------------------------------------------------
    untraced = HAPEEngine(default_server(), cache_budget_bytes=0)
    untraced.register_dataset(dataset.tables)
    plain = untraced.execute(queries["Q5"].plan, "hybrid")
    assert plain.trace is None
    assert plain.simulated_seconds == result.simulated_seconds
    print("tracing off: result.trace is None, simulated seconds "
          "bit-identical to the traced run")

    # ------------------------------------------------------------------
    # 5. A served chaos epoch, traced.
    # ------------------------------------------------------------------
    def serve(*, fault_plan=None, tracing=True, aging=None):
        server = QueryServer(default_server(), preemption=True,
                             aging_seconds=aging,
                             fault_plan=fault_plan, tracing=tracing)
        server.register_dataset(dataset.tables)
        server.open_session("inter", priority="interactive",
                            max_concurrency=2, slo_p99_seconds=1.0)
        server.open_session("batch", priority="batch", max_concurrency=2)
        for name, query in queries.items():
            server.submit("batch", query.plan, "hybrid", label=name)
            server.submit("inter", query.plan, "gpu", label=name)
        return server, server.run()

    # Fault-free reference first, to place the outage window inside the
    # epoch (same recipe as the `trace` benchmark suite).
    _, reference = serve(tracing=False, aging=1.0)
    aging = reference.makespan / 8
    chaos = (FaultPlan(seed=13)
             .fail_device("gpu0", at=reference.makespan * 0.25,
                          recover_at=reference.makespan * 0.60)
             .transient_errors(rate=0.2))

    server, report = serve(fault_plan=chaos, aging=aging)
    epoch = server.last_trace
    kinds = sorted({event.kind for event in epoch.events})
    print("\n== served chaos epoch, traced ==")
    print(f"{len(epoch.queries)} tickets, {len(epoch.events)} lifecycle "
          f"events, kinds: {', '.join(kinds)}")
    print(f"failovers={report.failovers} retries={report.retries} "
          f"preemptions={report.preemptions}")
    assert report.failovers > 0

    replay = serve(fault_plan=chaos, aging=aging)[0].last_trace.to_jsonl()
    assert replay == epoch.to_jsonl()
    print(f"epoch JSONL byte-identical across a replay "
          f"({len(replay.splitlines())} lines)")

    by_ticket = {q.ticket_id: q for q in epoch.queries}
    print("\nper-query critical paths:")
    for ticket_id, cp in sorted(epoch.critical_paths().items()):
        traced = by_ticket[ticket_id]
        print(f"  {traced.tenant}:{traced.label:<4s} ({traced.final_mode:<6s})"
              f" bound by {cp.binding_resource}"
              f" ({cp.bound}, idle {cp.idle_seconds * 1e3:.3f}ms)")
        assert cp.binding_resource

    with tempfile.TemporaryDirectory() as tmp:
        chrome_path = Path(tmp) / "epoch.chrome.json"
        epoch.write_chrome(chrome_path)
        payload = json.loads(chrome_path.read_text())
        phases = {event["ph"] for event in payload["traceEvents"]}
        print(f"\nChrome trace: {len(payload['traceEvents'])} events, "
              f"phases {sorted(phases)} — load it at ui.perfetto.dev")

    snapshot = server.metrics()
    wanted = ("tenant_cache", "epoch_median_q_error", "device_occupancy")
    print("\nmetrics satellites (Prometheus exposition excerpt):")
    for line in snapshot.to_prometheus().splitlines():
        if any(key in line for key in wanted) and not line.startswith("#"):
            print(f"  {line}")

    print("\ninspect exported traces with: "
          "python tools/trace_tool.py summarize|critical-path|diff ...")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
