"""Non-partitioned (hardware-oblivious) hash join.

The baseline every partitioned join is compared against (Figures 6 and 9):
build one global hash table over the build side, then probe it with every
probe-side tuple.  Both phases perform random accesses over a table that is
usually far larger than any cache, so they over-fetch a full cache line /
memory sector per access and suffer TLB misses — that is precisely the
"random accesses are the main bottleneck" argument of Section 4.1.

Following the single-evaluation operator contract (see
:mod:`repro.operators`), :func:`hash_join_kernel` computes the join result
once while :func:`estimate_non_partitioned_join` prices the same work on any
device from a :class:`JoinStats` record alone.

Under the morsel contract the join is *build-then-probe*: the build side is
a pipeline breaker (:class:`HashJoinBuild` takes the resident build batch
whole), after which the probe side may stream: :meth:`HashJoinBuild.probe`
is the per-morsel body the executor's driver applies to one probe morsel at
a time, and because the match list is ordered by probe position,
concatenated per-morsel outputs equal the whole-column join bit for bit.
:func:`hash_join_kernel` is build once, probe once — the reference that
streaming is tested against.

Matching is :meth:`HashJoinBuild.match`: the probe's key tuples coded as
the build's were — exactly, or masked and verified on every hit for a
sparse composite key (see :class:`HashJoinBuild`) — and one
:class:`~repro.relational.keys.JoinBuildIndex` probe.

That probe surface is also what makes this join *fusable*
(:func:`repro.codegen.pipeline.is_fused_probe`): the executor's
pipeline-fused chains build the index once and then drive each chain
morsel through :meth:`HashJoinBuild.probe` on its way to the fusion
boundary.  A probe moves no column: its output is a
:class:`~repro.operators.base.Rows` view — build columns at the build
match positions, probe columns at the probe match positions composed onto
theirs — so a build column nothing above reads is never gathered.  The
partitioned joins find their matches through this same build, index and
view (:class:`~repro.operators.radix.JoinSides`), once over the whole
probe side; they still break the chain, because the algorithm they are
charged for partitions both inputs in full before joining.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..hardware.device import Device
from ..relational.keys import (SLOT_SPAN_PER_ROW, JoinBuildIndex, KeyDomain,
                                is_integral, key_columns)
from .base import (
    ArrayMap,
    OpCost,
    OpOutput,
    Rows,
    record_kernel_invocation,
)
from .filterproject import compute_ops_per_sec

#: Bytes of one hash-table entry: key, payload reference and next pointer.
HASH_ENTRY_BYTES = 16

#: Scalar ops per build/probe step in generated code (hashing + compare).
_OPS_PER_STEP = 8.0


@dataclass(frozen=True)
class JoinStats:
    """Data-derived quantities the join cost estimators need."""

    build_rows: int
    probe_rows: int
    build_nbytes: int
    probe_nbytes: int
    output_nbytes: int


class HashJoinBuild:
    """The build-then-probe state of the non-partitioned hash join.

    Constructing it consumes the *entire* build side (the join's pipeline
    breaker): its key tuples define the join's :class:`KeyDomain` and their
    codes are indexed once — the simulated analogue of building the global
    hash table.  :meth:`probe` then matches one probe batch at a time;
    per-morsel probe outputs concatenate to exactly the whole-column join
    result, so a morsel scheduler can stream the probe side without
    changing a single output byte.

    The index is sized to the cache, as the paper sizes every hash table.
    A unique key of two or more integer columns whose exact code spans
    more than ``SLOT_SPAN_PER_ROW`` values per build row is indexed on a
    *masked code* instead: the exact fold of the leading columns times
    ``K``, plus the last column ``& (K - 1)``, with ``K`` the smallest
    power of two below the last column's span that keeps the build's
    masked codes unique and the table within ``SLOT_SPAN_PER_ROW`` slots
    a row (Q9's ``(ps_partkey, ps_suppkey)``: ``K = 4`` and 160 KB at
    SF 0.05, where the exact code stepped through a 1.25 MB directory).
    Unique masked codes are a :class:`JoinBuildIndex` slot table, so a
    slot holds the one build row with its leading tuple and low bits, and
    :meth:`match` keeps a hit only where that row's last key column equals
    the probe's: the match list equals the exact code's bit for bit.
    Every other build — repeated tuples included — indexes the exact code.
    ``domain`` stays exact either way: the co-processed join's
    co-partitions and every group-by read exact codes.
    """

    def __init__(self, build: Mapping[str, np.ndarray], *,
                 build_keys: Sequence[str]) -> None:
        self.rows = Rows.of(build)
        self.domain = KeyDomain(self.rows, build_keys)
        #: The masked path's build key column, verified on every hit, and
        #: the low bits of it the code keeps (``None``: the exact path).
        self.last = self.bits = None
        codes, rows = self.domain.codes, self.rows.num_rows
        span = self.domain.last_span()
        if span and self.domain.size > SLOT_SPAN_PER_ROW * rows:
            leads = self.domain.size // span   # leading codes
            lead = self.domain.encode(self.rows, build_keys[:-1])
            last = key_columns(self.rows, build_keys[-1:])[0]
            # Masks below the column's span whose table fits the slot
            # budget, from the first with as many slots as rows.  Unique
            # under a mask is unique under every wider one: try the
            # narrowest (Q9's), then the widest — a build no mask
            # separates costs two trials — then bisect between them.
            lo = ((rows - 1) // leads).bit_length()
            ok = hi = min((span - 1).bit_length(),
                          (SLOT_SPAN_PER_ROW * rows // leads).bit_length())
            # ``fail``: the widest width known to repeat a code; ``ok``: the
            # narrowest known unique (``hi``: none yet).
            fail = lo - 1
            while ok - fail > 1:
                bits = (lo if fail < lo else ok - 1 if ok == hi
                        else (fail + ok) // 2)
                masked = _masked(lead.copy(), last, bits)
                seen = np.zeros(leads << bits, np.uint8)   # a byte a slot
                seen[masked] = 1
                if np.count_nonzero(seen) < rows:   # a repeated code
                    fail = bits
                else:
                    ok, codes = bits, masked
            if ok < hi:   # unique: a slot table
                self.last, self.bits = last, ok
        self.index = JoinBuildIndex(codes)

    def match(self, probe: Mapping[str, np.ndarray],
              probe_keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The ``(build, probe)`` positions of one probe batch's matches,
        in the :meth:`JoinBuildIndex.probe` order and form (probe
        positions ``None``: every probe row matched once, in order)."""
        if self.last is None:
            return self.index.probe(self.domain.encode(probe, probe_keys))
        # A leading tuple off the build's domain codes -1: its masked code
        # is negative and reads the table's empty first slot.
        lead = self.domain.encode(probe, probe_keys[:-1])
        last = key_columns(probe, probe_keys[-1:])[0]
        if not is_integral(last):   # only its integral values can match
            with np.errstate(invalid="ignore"):   # NaN, inf
                values, last = last, last.astype(np.int64)
            lead[last != values] = -1
        build_idx, probe_idx = self.index.probe(_masked(lead, last, self.bits))
        # A slot holds the one build row with the probe's leading tuple and
        # low bits: the hit stands where the whole last column is equal.
        hits = self.last.take(build_idx) == (last if probe_idx is None
                                             else last.take(probe_idx))
        if hits.all():
            return build_idx, probe_idx
        kept = np.flatnonzero(hits)
        return build_idx[kept], kept if probe_idx is None else probe_idx[kept]

    def probe(self, probe: Mapping[str, np.ndarray], *,
              probe_keys: Sequence[str]) -> Rows:
        """Join one probe batch (whole side or a single morsel)."""
        probe = Rows.of(probe)
        return self.joined(probe, *self.match(probe, probe_keys))

    def joined(self, probe: Rows, build_idx: np.ndarray,
               probe_idx: np.ndarray | None,
               output_order: str = "probe") -> Rows:
        """The output view of one probe batch's matches, in the canonical
        order ``output_order``: build columns at the build match positions,
        probe columns at the probe's composed onto theirs.

        The matches arrive probe-major with ties build-ascending (the
        :meth:`JoinBuildIndex.probe` contract); probe positions ``None``
        are every probe row once, in order — a foreign key probing its
        primary key's slot table: the gathered slots are the build
        positions, and the probe columns stay put.  Build-major is one
        stable sort of the build positions away: ties stay
        probe-ascending, and over ``None`` the sort's permutation is the
        probe positions.
        """
        if output_order == "build":
            order = np.argsort(build_idx, kind="stable")
            build_idx, probe_idx = build_idx[order], (
                order if probe_idx is None else probe_idx[order])
        return Rows.joined(self.rows, probe, build_idx, probe_idx)


def _masked(lead: np.ndarray, last: np.ndarray, bits: int) -> np.ndarray:
    """The masked code ``lead * 2**bits + (last & (2**bits - 1))``, written
    over ``lead``."""
    if bits:
        lead <<= bits
        lead |= last & np.int64((1 << bits) - 1)
    return lead


def check_output_order(output_order: str) -> None:
    """Refuse an order that is not one of the two canonical ones."""
    if output_order not in ("probe", "build"):
        raise ValueError("output_order must be 'probe' or 'build'")


def hash_join_kernel(build: Mapping[str, np.ndarray],
                     probe: Mapping[str, np.ndarray], *,
                     build_keys: Sequence[str],
                     probe_keys: Sequence[str],
                     output_order: str = "probe",
                     ) -> tuple[ArrayMap, JoinStats]:
    """Evaluate the equi-join once; device-independent.

    ``output_order`` selects the canonical output row order (see
    ``docs/ARCHITECTURE.md``): ``"probe"`` (the default, and the join's
    natural order) emits matches ordered by probe position with ties by
    ascending build position; ``"build"`` emits build-major order — the
    executor requests it for joins whose build side is the logical *right*
    input, so every join's output matches the reference executor's
    right-major order row for row.  The order never changes stats, only the
    permutation of the output rows.
    """
    check_output_order(output_order)
    record_kernel_invocation("hash_join")
    builder = HashJoinBuild(build, build_keys=build_keys)
    probe = Rows.of(probe)
    rows = builder.joined(probe, *builder.match(probe, probe_keys),
                          output_order)
    stats = JoinStats(
        build_rows=builder.rows.num_rows,
        probe_rows=probe.num_rows,
        build_nbytes=builder.rows.nbytes(),
        probe_nbytes=probe.nbytes(),
        output_nbytes=rows.nbytes(),
    )
    return dict(rows), stats


def estimate_non_partitioned_join(stats: JoinStats,
                                  device: Device) -> OpCost:
    """Cost of the hardware-oblivious join on ``device``; no data touched."""
    cost = OpCost()
    table_bytes = max(stats.build_rows, 1) * HASH_ENTRY_BYTES
    cost.add("scan-build", device.cost.seq_scan(stats.build_nbytes))
    cost.add("scan-probe", device.cost.seq_scan(stats.probe_nbytes))
    if stats.build_rows:
        cost.add("build", device.cost.hash_build(stats.build_rows,
                                                 HASH_ENTRY_BYTES))
    if stats.probe_rows:
        cost.add("probe", device.cost.hash_probe(
            stats.probe_rows, HASH_ENTRY_BYTES, table_bytes))
        cost.add("compute",
                 (stats.build_rows + stats.probe_rows) * _OPS_PER_STEP
                 / compute_ops_per_sec(device))
    if device.is_gpu:
        cost.add("kernel-launch", device.cost.kernel_launch(2))
    cost.add("materialize-output", device.cost.seq_write(stats.output_nbytes))
    return cost


def non_partitioned_join(build: Mapping[str, np.ndarray],
                         probe: Mapping[str, np.ndarray],
                         device: Device, *,
                         build_keys: Sequence[str],
                         probe_keys: Sequence[str]) -> OpOutput:
    """Hardware-oblivious hash join of two column maps on one device."""
    columns, stats = hash_join_kernel(build, probe, build_keys=build_keys,
                                      probe_keys=probe_keys)
    return OpOutput(columns=columns,
                    cost=estimate_non_partitioned_join(stats, device))


def build_table_bytes(build_rows: int) -> int:
    """Size of the global hash table a non-partitioned join allocates.

    Exposed so that engines can check whether the table fits in GPU memory
    before attempting GPU execution (the Q9 failure mode in Section 6.4).
    """
    return int(build_rows * HASH_ENTRY_BYTES)


__all__ = [
    "HASH_ENTRY_BYTES",
    "HashJoinBuild",
    "JoinStats",
    "build_table_bytes",
    "check_output_order",
    "estimate_non_partitioned_join",
    "hash_join_kernel",
    "non_partitioned_join",
]
