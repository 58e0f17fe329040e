"""Scrapeable observability snapshot for the query server.

The serving layer's counters live on :class:`~repro.server.server.
ServerReport` objects, which are Python values; an operator's monitoring
stack wants them over a wire in a format it already speaks.
:class:`MetricsSnapshot` is that bridge: one frozen point-in-time capture
of the last epoch's report, the shared cache's live occupancy and the
topology's device health, rendering as

* :meth:`MetricsSnapshot.to_prometheus` — Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` / sample lines, labels sorted), the
  payload a ``GET /metrics`` endpoint would serve, and
* :meth:`MetricsSnapshot.to_json` — the same numbers as one JSON
  document, for health dashboards and the bench harness.

The snapshot is plain data derived from simulated time — no wall clocks,
no randomness — so two identical epochs export byte-identical payloads,
and the determinism tests can assert on the rendered text itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..engine.querycache import CacheCounters, QueryCacheStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .server import ServerReport

__all__ = ["MetricsSnapshot"]

#: (metric suffix, help text, type) for the server-level samples, in
#: export order.
_SERVER_METRICS = (
    ("completed_total", "Queries completed in the last epoch.", "counter"),
    ("rejected_total", "Submissions rejected by admission control.",
     "counter"),
    ("failed_total", "Queries that exhausted retries and failed.", "counter"),
    ("timed_out_total", "Queries that exceeded their deadline.", "counter"),
    ("retries_total", "Retry attempts across all queries.", "counter"),
    ("failovers_total", "Mode-degradation failovers.", "counter"),
    ("preemptions_total", "Batch attempts preempted by interactive work.",
     "counter"),
    ("wasted_seconds", "Simulated seconds burned by killed attempts.",
     "gauge"),
    ("makespan_seconds", "Server time at which the last query finished.",
     "gauge"),
    ("throughput_qps", "Completed queries per simulated second.", "gauge"),
    ("speedup_vs_serial", "Throughput gain over serial submission.",
     "gauge"),
    ("slos_met", "1 when every tenant with an SLO met it.", "gauge"),
)

_TENANT_METRICS = (
    ("completed_total", "Tenant queries completed.", "counter"),
    ("rejected_total", "Tenant submissions rejected.", "counter"),
    ("failed_total", "Tenant queries failed.", "counter"),
    ("timed_out_total", "Tenant queries timed out.", "counter"),
    ("preemptions_total", "Tenant attempts preempted.", "counter"),
    ("queue_wait_seconds", "Summed tenant queue wait.", "gauge"),
    ("latency_p50_seconds", "Tenant p50 submit-to-finish latency.", "gauge"),
    ("latency_p99_seconds", "Tenant p99 submit-to-finish latency.", "gauge"),
    ("slo_p99_seconds", "Tenant p99 latency objective (0 = none).", "gauge"),
    ("slo_met", "1 tenant met its SLO, 0 missed, absent without SLO.",
     "gauge"),
    ("cache_hits_total", "Tenant shared-cache hits.", "counter"),
    ("cache_misses_total", "Tenant shared-cache misses.", "counter"),
)


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers bare, floats repr-exact."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class MetricsSnapshot:
    """One scrape of the server: epoch counters, cache, device health."""

    server: dict[str, float]
    tenants: dict[str, dict[str, float]]
    devices: dict[str, str]
    cache: dict[str, float]
    health: str = "ok"
    extra: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def collect(cls, *, report: "ServerReport | None",
                cache: QueryCacheStats,
                device_health: Mapping[str, str],
                tenant_cache: Mapping[str, CacheCounters] | None = None,
                extra: Mapping[str, float] | None = None
                ) -> "MetricsSnapshot":
        """Build a snapshot from a report (``None`` = no epoch yet).

        ``tenant_cache`` carries the shared cache's per-tenant hit/miss
        attribution; ``extra`` carries derived gauges (epoch
        median q-error, per-device occupancy) whose keys may embed a
        Prometheus label set (``'device_occupancy{device="gpu0"}'``).
        """
        server: dict[str, float] = {name: 0 for name, _, _ in _SERVER_METRICS}
        server["slos_met"] = 1
        tenants: dict[str, dict[str, float]] = {}
        if report is not None:
            server.update(
                completed_total=report.completed,
                rejected_total=report.rejected,
                failed_total=report.failed,
                timed_out_total=report.timed_out,
                retries_total=report.retries,
                failovers_total=report.failovers,
                preemptions_total=report.preemptions,
                wasted_seconds=report.wasted_seconds,
                makespan_seconds=report.makespan,
                throughput_qps=report.throughput_qps,
                speedup_vs_serial=report.speedup_vs_serial,
                slos_met=int(report.slos_met),
            )
            for name in sorted(report.tenants):
                tenant = report.tenants[name]
                samples: dict[str, float] = {
                    "completed_total": tenant.completed,
                    "rejected_total": tenant.rejected,
                    "failed_total": tenant.failed,
                    "timed_out_total": tenant.timed_out,
                    "preemptions_total": tenant.preemptions,
                    "queue_wait_seconds": tenant.queue_wait_seconds,
                    "latency_p50_seconds": tenant.percentile_latency(50),
                    "latency_p99_seconds": tenant.percentile_latency(99),
                    "slo_p99_seconds": tenant.slo_p99_seconds or 0.0,
                }
                if tenant.slo_met is not None:
                    samples["slo_met"] = int(tenant.slo_met)
                tenants[name] = samples
        for name in sorted(tenant_cache or {}):
            counters = tenant_cache[name]
            samples = tenants.setdefault(name, {})
            samples["cache_hits_total"] = counters.hits
            samples["cache_misses_total"] = counters.misses
        devices = dict(sorted(device_health.items()))
        degraded = any(state != "healthy" for state in devices.values())
        cache_samples = {
            "hits_total": cache.hits,
            "misses_total": cache.misses,
            "evicted_total": cache.evicted,
            "invalidated_total": cache.invalidated,
            "entries": cache.entries,
            "bytes_used": cache.bytes_used,
        }
        return cls(server=server, tenants=tenants, devices=devices,
                   cache=cache_samples,
                   health="degraded" if degraded else "ok",
                   extra=dict(extra or {}))

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """The snapshot as one plain JSON-serializable mapping."""
        return {
            "health": self.health,
            "server": dict(self.server),
            "tenants": {name: dict(samples)
                        for name, samples in self.tenants.items()},
            "devices": dict(self.devices),
            "cache": dict(self.cache),
            "extra": dict(self.extra),
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format, stable and sorted."""
        lines: list[str] = []
        for suffix, help_text, kind in _SERVER_METRICS:
            name = f"repro_server_{suffix}"
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {_format_value(self.server[suffix])}")
        for suffix, help_text, kind in _TENANT_METRICS:
            samples = [(tenant, metrics[suffix])
                       for tenant, metrics in sorted(self.tenants.items())
                       if suffix in metrics]
            if not samples:
                continue
            name = f"repro_tenant_{suffix}"
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for tenant, value in samples:
                lines.append(
                    f'{name}{{tenant="{tenant}"}} {_format_value(value)}')
        name = "repro_device_available"
        lines.append(f"# HELP {name} 1 when the device is schedulable "
                     "(not failed).")
        lines.append(f"# TYPE {name} gauge")
        for device, state in self.devices.items():
            value = 0 if state == "failed" else 1
            lines.append(f'{name}{{device="{device}"}} {value}')
        for suffix, value in self.cache.items():
            name = f"repro_cache_{suffix}"
            kind = "counter" if suffix.endswith("_total") else "gauge"
            lines.append(f"# HELP {name} Shared query cache {suffix}.")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {_format_value(value)}")
        seen_extra: set[str] = set()
        for key in self.extra:
            base = key.split("{", 1)[0]
            if base in seen_extra:
                continue
            seen_extra.add(base)
            name = f"repro_{base}"
            lines.append(f"# HELP {name} Derived epoch gauge ({base}).")
            lines.append(f"# TYPE {name} gauge")
            for sample, value in self.extra.items():
                if sample.split("{", 1)[0] != base:
                    continue
                labels = sample[len(base):]
                lines.append(f"{name}{labels} {_format_value(value)}")
        name = "repro_server_healthy"
        lines.append(f"# HELP {name} 1 when every device is healthy.")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {1 if self.health == 'ok' else 0}")
        return "\n".join(lines) + "\n"
