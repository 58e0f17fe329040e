"""Pipeline extraction from physical plans.

A heterogeneity-aware physical plan is broken into *pipelines*, each
targeting a single device type (Section 3: "the heterogeneity-aware plan is
then broken down into pipelines each targeting a single device").  Pipeline
breakers are the operators that must consume their whole input before
producing output (hash-table builds, aggregations, sorts) and the
HetExchange operators, which hand packets to another device or degree of
parallelism.

Which operators a morsel stream flows *through* at execution time is a
different question from where pipelines end, and it is stated exactly once,
in :func:`streams_morsels`: the executor's driver evaluates those operators
morsel-at-a-time and hands every other operator its whole input.

Pipeline-fused streaming is built on that predicate: instead of each
streaming operator materializing its full output batch before the next
operator runs, a maximal chain of streaming operators
(:func:`fused_chain`) is driven morsel-at-a-time end to end — each morsel
flows through the *entire* chain before the next morsel is touched, and
the batch only materializes at the fusion boundary (the breaker that
consumes the chain).  Exchange operators are payload-transparent
(:func:`is_fusion_passthrough`): they forward packets without looking at
tuples, so a fused chain streams straight through them.  The hash join's
probe phase is streaming too (:func:`is_fused_probe`): once the build side
is consumed, probe morsels match one at a time, so a fused chain can run
*through* a non-partitioned join without materializing the join output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..hardware.specs import DeviceKind
from ..relational.physical import (
    DeviceCrossing,
    JoinAlgorithm,
    MemMove,
    PAggregate,
    PFilterProject,
    PhysicalOp,
    PJoin,
    PSort,
    Router,
)


@dataclass
class Pipeline:
    """A chain of operators fused into one generated kernel."""

    pipeline_id: int
    device: DeviceKind
    operators: list[PhysicalOp] = field(default_factory=list)
    depends_on: list[int] = field(default_factory=list)

    def describe(self) -> str:
        chain = " -> ".join(op.describe() for op in self.operators)
        deps = f" (after {self.depends_on})" if self.depends_on else ""
        return f"pipeline#{self.pipeline_id}[{self.device.value}]{deps}: {chain}"


def is_pipeline_breaker(op: PhysicalOp) -> bool:
    """Operators that terminate the pipeline that produces their input."""
    if isinstance(op, (PAggregate, PSort, PJoin)):
        return True
    return op.is_exchange()


def is_fusion_passthrough(op: PhysicalOp) -> bool:
    """Exchange operators a fused morsel stream flows through unchanged.

    Routers, device crossings and mem-moves operate on packet *metadata*
    only (the data-packing trait guarantees they never inspect tuples), so
    a morsel can stream through them with its payload untouched.  They
    still end a pipeline for extraction purposes — the degree of
    parallelism or placement changes — but not a *fused chain*: fusion is
    about when batches materialize, not where they run.
    """
    return isinstance(op, (Router, DeviceCrossing, MemMove))


def is_fused_probe(op: PhysicalOp) -> bool:
    """Joins whose probe phase streams morsel-at-a-time once built.

    Only the non-partitioned hash join qualifies: its build side is a
    breaker, but after the build the probe is row-local (match lists are
    ordered by probe position), so probe morsels flow through without the
    join output ever materializing.  Radix/partitioned joins re-order both
    inputs and need them whole, so they break the chain.  A *swapped* join
    (build side is the logical right input) breaks it too: its canonical
    output order is build-major, which cannot be emitted as a probe-order
    morsel stream.
    """
    return (isinstance(op, PJoin)
            and op.algorithm is JoinAlgorithm.NON_PARTITIONED
            and not op.swapped)


def streams_morsels(op: PhysicalOp) -> bool:
    """Operators a fused morsel stream flows *through*.

    The one statement of the streaming-vs-breaker split for execution:
    :func:`fused_chain` extends a chain across exactly these operators,
    and the executor evaluates exactly these morsel-at-a-time (everything
    else runs on its whole input).  The morsel stream enters through the
    operator's last child — the only child of a filter/project or
    exchange, the probe side of a join.
    """
    return (isinstance(op, PFilterProject) or is_fusion_passthrough(op)
            or is_fused_probe(op))


def fused_chain(node: PhysicalOp,
                can_defer: Callable[[PhysicalOp], bool]) -> list[PhysicalOp]:
    """The maximal fused chain whose *top* (output end) is ``node``.

    Walks downward from ``node`` through the operators that
    :func:`streams_morsels`, returning the chain top-down.  The node below
    the last chain element (its last child) is the chain's *source* — the
    materialized batch the morsel stream is carved from.  An empty list
    means ``node`` starts no fusable chain and must be executed (and
    memoized) as a standalone operator.

    ``can_defer`` is the memo-aware deferral hook: it decides whether a
    memoizable operator's output may be *deferred* (streamed through
    without materializing as a standalone batch).  The executor answers
    "no" for subplans that occur more than once in the plan — those are
    sharing points whose single evaluation other occurrences reuse — which
    cuts the chain at exactly the nodes whose batches are still needed.

    The returned chain always has a memoizable transform (filter/project
    or join probe) at its top: a chain of pure exchange operators has no
    batch to defer and is not worth fusing.
    """
    chain: list[PhysicalOp] = []
    current = node
    while streams_morsels(current) and (is_fusion_passthrough(current)
                                        or can_defer(current)):
        chain.append(current)
        current = current.children()[-1]
    if not chain or is_fusion_passthrough(chain[0]):
        return []
    return chain


def break_into_pipelines(root: PhysicalOp) -> list[Pipeline]:
    """Split a physical plan into its pipelines (topologically ordered)."""
    pipelines: list[Pipeline] = []

    def build(node: PhysicalOp) -> Pipeline:
        """Returns the pipeline whose sink is ``node``."""
        child_pipelines = [build(child) for child in node.children()]
        if child_pipelines and not is_pipeline_breaker(node) and len(child_pipelines) == 1:
            pipeline = child_pipelines[0]
            pipeline.operators.append(node)
            pipeline.device = node.traits.device
            return pipeline
        pipeline = Pipeline(
            pipeline_id=len(pipelines),
            device=node.traits.device,
            operators=[node],
            depends_on=[child.pipeline_id for child in child_pipelines],
        )
        pipelines.append(pipeline)
        return pipeline

    last = build(root)
    if last not in pipelines:
        pipelines.append(last)
    # Re-number in dependency order (children were appended before parents,
    # except for fused chains which share their child's pipeline object).
    ordered = sorted(pipelines, key=lambda p: p.pipeline_id)
    return ordered


def pipelines_per_device(pipelines: list[Pipeline]) -> dict[DeviceKind, int]:
    """How many pipelines target each device kind (used by tests/examples)."""
    histogram: dict[DeviceKind, int] = {}
    for pipeline in pipelines:
        histogram[pipeline.device] = histogram.get(pipeline.device, 0) + 1
    return histogram
