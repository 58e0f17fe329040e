"""Measurement plumbing shared by every workload.

Two clocks, kept apart everywhere:

* **host** — :func:`host_seconds` around calls into ``repro``: the seconds
  this process was *running*.  The engine is one thread that never sleeps
  or waits for I/O, so on an idle host that is the wall time; on the
  shared sandbox it leaves out the time the process sat descheduled or
  its virtual CPU was stolen, which is the neighbours' time, not the
  engine's.  What noise is left (cache and memory contention) only ever
  adds, so every reported value is a *floor*: the fastest of the run's
  timed units, operation by operation;
* **sim** — the simulated seconds / counters the engine itself reports;
  exact, so they must repeat bit-for-bit across the units of a run.

:class:`Recorder` is the tracing half: a span (name, start, end, parent,
unit, host seconds) around each call into a ``src/repro`` layer, kept in
memory and written out when the workload ends.  :class:`Clock` is the
end-to-end half: per-unit and per-operation host samples with tracing off.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: The host clock: CPU seconds (user + system) of this process.  Wall
#: time (``time.perf_counter``) is kept for deadlines, for the span
#: timeline and for :attr:`Clock.wall`, which shows what the host took away.
host_seconds = time.process_time

REPO = Path(__file__).resolve().parents[2]
MANIFEST = REPO / "BENCHMARK.json"

#: Per-layer metrics on the host clock whose names carry no time unit;
#: every other host metric ends in one of :data:`_HOST_SUFFIXES`.
_HOST_NAMES = frozenset({
    "peak_rss_mb", "executor.kernel_share", "workers.wall_ratio_w2",
    "operators.join_rows_per_s", "server.self_ms_per_ticket",
})
_HOST_SUFFIXES = ("_s", "_ms", "_us", "_pct")


def clock_of(name: str) -> str:
    """``"sim"`` (simulated clock), ``"host"`` or ``"exact"`` (a count).

    ``sim`` and ``exact`` metrics are pure functions of the seed and must
    be identical between two runs of one commit; ``host`` ones are noisy.
    """
    if "sim_" in name:
        return "sim"
    if name in _HOST_NAMES or name.endswith(_HOST_SUFFIXES):
        return "host"
    return "exact"


def load_manifest() -> dict:
    """``BENCHMARK.json``: the one place metric names and units live."""
    return json.loads(MANIFEST.read_text())


class Recorder:
    """In-memory span log for the traced pass.

    Disabled recorders make :meth:`span` a no-op, so workloads wrap their
    layer calls unconditionally and the untraced run pays one generator
    frame per call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: ``[name, start, end, parent index or None, unit, host seconds]``
        #: per span; start and end are wall instants on one timeline.
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Unit id stamped on new spans; ``-1`` is set-up.
        self.unit = -1

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = [name, 0.0, 0.0,
                  self._stack[-1] if self._stack else None, self.unit, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        start = host_seconds()
        try:
            yield
        finally:
            record[5] = host_seconds() - start
            record[2] = time.perf_counter()
            self._stack.pop()

    def per_unit(self, name: str) -> list[float]:
        """Host seconds in spans called ``name``, one total per unit."""
        totals: dict[int, float] = {}
        for span_name, _, _, _, unit, host in self.spans:
            if span_name == name and unit >= 0:
                totals[unit] = totals.get(unit, 0.0) + host
        return list(totals.values())

    def floor_ms(self, name: str) -> float:
        """Time spent in ``name`` spans in the unit that spent least, in ms."""
        return min(self.per_unit(name), default=0.0) * 1e3

    def setup_seconds(self, name: str) -> float:
        return sum(host for span_name, _, _, _, unit, host
                   in self.spans if span_name == name and unit < 0)

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span; ``self`` is the span minus its children.

        ``start`` and ``end`` are wall seconds since the first span;
        ``host`` and ``self`` are host seconds.
        """
        covered = [0.0] * len(self.spans)
        for _, _, _, parent, _, host in self.spans:
            if parent is not None:
                covered[parent] += host
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as out:
            for index, (name, start, end, parent, unit, host) in enumerate(
                    self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "unit": unit,
                    "parent": parent, "start": start - origin,
                    "end": end - origin, "host": host,
                    "self": host - covered[index]}) + "\n")


class Clock:
    """Host-time samples of one run: per timed unit and per operation.

    An operation is one position in the unit (the third execution of the
    pass, the fault epoch, ...), so across units its samples time the same
    deterministic work and differ only by what the host added.
    """

    def __init__(self) -> None:
        self.units: list[float] = []
        #: Per unit, its wall seconds: more than the host seconds by what
        #: the sandbox gave to someone else.
        self.wall: list[float] = []
        #: Per unit, the host seconds inside its operations.
        self.unit_ops: list[float] = []
        self.ops: dict[str, list[float]] = {}

    @contextmanager
    def unit(self):
        gc.collect()
        self.unit_ops.append(0.0)
        wall = time.perf_counter()
        start = host_seconds()
        yield
        self.units.append(host_seconds() - start)
        self.wall.append(time.perf_counter() - wall)

    @contextmanager
    def op(self, name: str):
        start = host_seconds()
        yield
        elapsed = host_seconds() - start
        self.ops.setdefault(name, []).append(elapsed)
        if self.unit_ops:
            self.unit_ops[-1] += elapsed

    def floors(self) -> dict[str, float]:
        """Each operation's fastest sample."""
        return {op: min(samples) for op, samples in self.ops.items()}

    def floor_seconds(self) -> float:
        """One unit with every operation at its fastest: the lower envelope.

        Host noise on this sandbox is one-sided and comes in bursts that
        last from one operation to minutes.  Under two busy neighbours the
        median of a run's units reads 10-40 % above an idle host's, the
        envelope 1-7 %, and the more operations a unit is cut into the
        closer: a short operation fits between two disturbances.
        """
        return sum(self.floors().values())

    def descheduled_share(self) -> float:
        """Share of the units' wall time this process was not running."""
        return 1.0 - sum(self.units) / sum(self.wall)


#: Host seconds the calibration kernel takes at its fastest on the sandbox
#: this benchmark was sized on.
CALIBRATION_REFERENCE_SECONDS = 0.047
CALIBRATION_INTERVAL_SECONDS = 0.3


class Calibration:
    """A fixed NumPy kernel timed between the timed units of a run.

    The sandbox speeds up and slows down by 5-15 % for minutes at a time
    even on the host clock (neighbours on its caches and memory bus, not
    this process), which no amount of sampling inside one run averages
    out.  The kernel — binary search, gather, stable sort and a fused
    multiply-add over a few hundred thousand values, the engine's own hot
    loops — sees the same weather, so host times are reported multiplied
    by :meth:`factor`: in seconds of a host on which the kernel
    takes :data:`CALIBRATION_REFERENCE_SECONDS`.  Raw samples stay raw.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._probe = rng.integers(0, 1 << 20, size=200_000)
        self._build = np.sort(rng.integers(0, 1 << 20, size=100_000))
        self._weights = rng.random(200_000)
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        start = host_seconds()
        positions = np.searchsorted(self._build, self._probe)
        matched = self._build[np.minimum(positions, len(self._build) - 1)]
        order = np.argsort(self._probe, kind="stable")
        (self._weights[order] * 1.0001 + matched).sum()
        self.samples.append(host_seconds() - start)
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATION_INTERVAL_SECONDS:
            self.sample()

    def factor(self) -> float:
        return CALIBRATION_REFERENCE_SECONDS / min(self.samples)


class Tally:
    """Operations attempted and failed (executions, tickets, checks)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def ran(self, count: int = 1, failed: int = 0, note: str = "") -> None:
        self.attempted += count
        self.failed += failed
        if failed:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        self.ran(1, 0 if ok else 1, f"check failed: {note}")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def geomean(values) -> float:
    values = [value for value in values if value > 0.0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def percentile(values, tenth: int) -> float:
    """The ``tenth``-th decile (5 = median, 9 = p90) of ``values``."""
    values = sorted(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10)[tenth - 1])


def summary(values) -> dict:
    """Raw samples with their quartiles, as stored in results files."""
    values = [float(value) for value in values]
    record = {"n": len(values), "median": median(values), "samples": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        record["q1"], record["q3"] = q1, q3
    return record


def timed(function, repeats: int) -> float:
    """Fastest host seconds of ``function()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        start = host_seconds()
        function()
        samples.append(host_seconds() - start)
    return min(samples)


def git_revision() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO,
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def fingerprint(seed: int) -> dict:
    """What a results file needs to be comparable with another one."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "load_1min_start": os.getloadavg()[0],
        "seed": seed,
        "git_revision": git_revision(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
