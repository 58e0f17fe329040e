"""Physical plans: trait-annotated DAGs of device-aware operators.

The heterogeneity-aware optimizer produces these plans.  Relational
operators (scan, filter/project, join, aggregate) are heterogeneity
*oblivious* — they only know the device type they were generated for — while
the HetExchange meta-operators (router, device-crossing, mem-move; packing
is a trait the optimizer sets, :attr:`Traits.packing`) encapsulate all
inter-device concerns, as Sections 3-5 of the paper prescribe.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from ..errors import PlanError
from ..hardware.specs import DeviceKind
from .expr import AggregateSpec, Expr
from .traits import Traits

_node_ids = itertools.count()


class JoinAlgorithm(enum.Enum):
    """Join algorithm choices the optimizer can make per device."""

    NON_PARTITIONED = "non-partitioned"
    RADIX_CPU = "radix-cpu"
    RADIX_GPU = "radix-gpu"
    COPROCESSED_RADIX = "coprocessed-radix"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class RoutingPolicy(enum.Enum):
    """Router policies supported by the HetExchange router (Section 4.2)."""

    LOAD_AWARE = "load-aware"
    LOCALITY_AWARE = "locality-aware"
    HASH = "hash"
    ROUND_ROBIN = "round-robin"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(eq=False)
class PhysicalOp:
    """Base class of physical operators."""

    traits: Traits
    node_id: int = field(default_factory=lambda: next(_node_ids), init=False)
    #: The optimizer's estimate of the logical operator this node was
    #: lowered from (output rows), stamped on relational nodes while
    #: lowering; ``None`` on exchanges, which forward batches, and on
    #: hand-built plans.  Like ``traits`` it never changes what the node
    #: computes, so :func:`structural_key` skips it.
    est_rows: float | None = field(default=None, kw_only=True)

    def children(self) -> tuple["PhysicalOp", ...]:
        return ()

    def describe(self) -> str:
        return type(self).__name__

    def walk(self) -> Iterator["PhysicalOp"]:
        for child in self.children():
            yield from child.walk()
        yield self

    def pretty(self, indent: int = 0) -> str:
        lines = [" " * indent + f"{self.describe()}  [{self.traits.describe()}]"]
        for child in self.children():
            lines.append(child.pretty(indent + 2))
        return "\n".join(lines)

    def is_exchange(self) -> bool:
        """True for HetExchange meta-operators (trait converters)."""
        return isinstance(self, (Router, DeviceCrossing, MemMove))


# ----------------------------------------------------------------------
# Relational (heterogeneity-oblivious, hardware-conscious) operators
# ----------------------------------------------------------------------
@dataclass(eq=False)
class PScan(PhysicalOp):
    """Scan a base table into packets."""

    table: str = ""
    columns: tuple[str, ...] | None = None

    def describe(self) -> str:
        cols = ", ".join(self.columns) if self.columns else "*"
        return f"Scan({self.table} [{cols}])"


@dataclass(eq=False)
class PFilterProject(PhysicalOp):
    """A fused filter + projection (a pipeline-friendly operator)."""

    child: PhysicalOp | None = None
    predicate: Expr | None = None
    projections: dict[str, Expr] | None = None

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        parts = []
        if self.predicate is not None:
            parts.append(f"filter={self.predicate!r}")
        if self.projections:
            parts.append(f"project=[{', '.join(self.projections)}]")
        return f"FilterProject({'; '.join(parts)})"


@dataclass(eq=False)
class PJoin(PhysicalOp):
    """Equi-join; ``algorithm`` selects the per-device implementation.

    ``swapped`` records whether the optimizer assigned the *logical right*
    input to the build side.  Every join kernel emits the canonical output
    order of the reference executor — rows ordered by logical-right
    position, ties by logical-left position — which is probe-major when the
    probe side is the logical right input and build-major when ``swapped``.
    The flag is part of the functional identity of the node (it decides the
    output row order), so :func:`structural_key` includes it like any other
    field.
    """

    build: PhysicalOp | None = None
    probe: PhysicalOp | None = None
    build_keys: tuple[str, ...] = ()
    probe_keys: tuple[str, ...] = ()
    algorithm: JoinAlgorithm = JoinAlgorithm.NON_PARTITIONED
    #: True when the build side is the logical *right* input (the optimizer
    #: picked the smaller side): the canonical output order is then
    #: build-major instead of probe-major.
    swapped: bool = False

    def __post_init__(self) -> None:
        if len(self.build_keys) != len(self.probe_keys):
            raise PlanError("join build/probe key lists must have equal length")

    def children(self) -> tuple[PhysicalOp, ...]:
        children = []
        if self.build is not None:
            children.append(self.build)
        if self.probe is not None:
            children.append(self.probe)
        return tuple(children)

    def describe(self) -> str:
        pairs = ", ".join(
            f"{b}={p}" for b, p in zip(self.build_keys, self.probe_keys)
        )
        return f"Join[{self.algorithm.value}]({pairs})"


@dataclass(eq=False)
class PAggregate(PhysicalOp):
    """Hash aggregation; ``phase`` distinguishes partial from final."""

    child: PhysicalOp | None = None
    group_by: tuple[str, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()
    phase: str = "complete"  # "partial" | "final" | "complete"

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        keys = ", ".join(self.group_by) or "()"
        return f"Aggregate[{self.phase}](by [{keys}])"


@dataclass(eq=False)
class PSort(PhysicalOp):
    """Order the (small) final result."""

    child: PhysicalOp | None = None
    keys: tuple[str, ...] = ()

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        return f"Sort({', '.join(self.keys)})"


# ----------------------------------------------------------------------
# HetExchange meta-operators (trait converters)
# ----------------------------------------------------------------------
@dataclass(eq=False)
class Router(PhysicalOp):
    """Parallelism trait converter: routes packets to consumer instances."""

    child: PhysicalOp | None = None
    policy: RoutingPolicy = RoutingPolicy.LOAD_AWARE
    consumers: tuple[str, ...] = ()

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        return f"Router[{self.policy.value}] -> {list(self.consumers)}"


@dataclass(eq=False)
class DeviceCrossing(PhysicalOp):
    """Device trait converter: transfers execution to another device type."""

    child: PhysicalOp | None = None
    target_kind: DeviceKind = DeviceKind.GPU

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        return f"DeviceCrossing(-> {self.target_kind.value})"


@dataclass(eq=False)
class MemMove(PhysicalOp):
    """Locality trait converter: moves/broadcasts packets between memories."""

    child: PhysicalOp | None = None
    destination: str = "gpu0"
    broadcast: bool = False

    def children(self) -> tuple[PhysicalOp, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        mode = "broadcast" if self.broadcast else "move"
        return f"MemMove[{mode}](-> {self.destination})"


def structural_key(node: PhysicalOp,
                   cache: dict[int, tuple] | None = None, *,
                   table_versions: Mapping[str, int] | None = None) -> tuple:
    """A hashable description of the *functional* computation of a subtree.

    Two nodes with equal structural keys produce identical output columns
    when executed against the same catalog: the key covers operator types,
    expressions, key lists, algorithms and children, but deliberately skips
    ``traits``, ``node_id`` and ``est_rows`` — device placement and row
    estimates change cost and plan choice, never results.  The executor
    uses this to evaluate repeated subplans (e.g. a dimension scan feeding
    several joins) exactly once, and — through the session-lifetime query
    cache — to reuse them across queries.

    ``table_versions`` (name → catalog version, usually
    :attr:`~repro.storage.catalog.Catalog.table_versions`) adds a
    table-identity component to every scan in the subtree: the key of a
    ``PScan`` folds in the catalog version of the table it reads, so keys
    built against different registrations of the same table name never
    compare equal.  This is what makes the key safe to use across queries:
    ``register(replace=True)`` / ``drop`` bump the version and thereby
    retire every cached key that read the old data.  Without
    ``table_versions`` the key describes structure only, which is
    sufficient inside a single ``execute`` call.

    ``cache`` (an ``id(node) -> key`` dict scoped to one plan traversal)
    makes repeated key requests over one plan linear instead of quadratic;
    callers must discard it when the plan objects can be garbage collected
    — or when ``table_versions`` changes, since cached keys embed the
    versions they were built with.
    """
    if cache is not None:
        cached = cache.get(id(node))
        if cached is not None:
            return cached
    parts: list[object] = [type(node).__name__]
    if table_versions is not None and isinstance(node, PScan):
        parts.append(("catalog-version",
                      table_versions.get(node.table, -1)))
    for spec in dataclasses.fields(node):
        if spec.name in ("traits", "node_id", "est_rows"):
            continue
        parts.append(_structural_field(getattr(node, spec.name), cache,
                                       table_versions=table_versions))
    key = tuple(parts)
    if cache is not None:
        cache[id(node)] = key
    return key


def _structural_field(value: object,
                      cache: dict[int, tuple] | None = None, *,
                      table_versions: Mapping[str, int] | None = None,
                      ) -> object:
    if isinstance(value, PhysicalOp):
        return structural_key(value, cache, table_versions=table_versions)
    if isinstance(value, Expr):
        return repr(value)
    if isinstance(value, AggregateSpec):
        return (value.func, repr(value.expr), value.alias)
    if isinstance(value, dict):
        return tuple((name, _structural_field(item, cache,
                                              table_versions=table_versions))
                     for name, item in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(_structural_field(item, cache,
                                       table_versions=table_versions)
                     for item in value)
    if isinstance(value, enum.Enum):
        return value.value
    return value


def referenced_tables(node: PhysicalOp) -> frozenset[str]:
    """Names of every base table a subtree scans.

    The query cache records this per entry so catalog invalidation
    (``register(replace=True)`` / ``drop``) can discard exactly the cached
    results that read the changed table.
    """
    return frozenset(child.table for child in node.walk()
                     if isinstance(child, PScan))


def count_operators(root: PhysicalOp) -> dict[str, int]:
    """Histogram of operator class names in a plan (used by tests/examples)."""
    histogram: dict[str, int] = {}
    for node in root.walk():
        histogram[type(node).__name__] = histogram.get(type(node).__name__, 0) + 1
    return histogram
