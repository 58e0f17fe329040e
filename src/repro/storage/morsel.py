"""Morsels: bounded row-count slices of a column batch.

Morsel-driven batched execution processes data in fixed-size horizontal
slices instead of whole-column packets, so that operator working sets stay
bounded and pipelines can overlap (the paper's bounded "data packing"
blocks, Section 3).  A carved morsel is a column map — zero-copy views of
at most ``morsel_rows`` consecutive rows of a batch — so whatever takes a
batch takes a morsel.  Inside a fused chain the driver wraps it in a
:class:`~repro.operators.base.Rows` view, which filters and join probes
narrow by composing row positions; each column is gathered once, when
something reads it, and the view is materialized back into a column map
at the chain's boundary.

The module provides the two ends of the engine's one carve -> stream ->
reassemble loop (``Executor._evaluate`` in :mod:`repro.engine.executor`)
and the count ``Executor.grant``'s accounting shares with it:

* :func:`iter_morsels` — carve a column batch into a stream of morsels
  (the producer side),
* :func:`concat_columns` — materialize a list of per-morsel outputs back
  into one batch, consuming them (the boundary of a streamed chain), and
* :func:`morsel_count` — how many morsels a batch is carved into.

Pipeline breakers (aggregates, join builds, partitioned joins) never see
a morsel: the driver hands them the resident batch.

Morsels carry NumPy views, never copies, so carving a batch costs one
small dict per morsel regardless of ``morsel_rows``.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

#: Default morsel granularity of the engine: 512 Ki rows per morsel.  Large
#: enough that per-morsel NumPy dispatch and output reassembly stay
#: negligible against the kernel work, small enough that million-row scans
#: (TPC-H lineitem from SF ~0.1 up) stream in bounded slices.
DEFAULT_MORSEL_ROWS = 1 << 19


def morsel_count(num_rows: int, morsel_rows: int) -> int:
    """How many morsels a batch of ``num_rows`` rows is carved into.

    Every batch yields at least one morsel — an empty batch streams as a
    single empty morsel so downstream operators still see the schema.
    """
    if morsel_rows <= 0:
        raise ValueError("morsel_rows must be positive")
    return max(-(-num_rows // morsel_rows), 1)


def iter_morsels(columns: Mapping[str, np.ndarray],
                 morsel_rows: int = DEFAULT_MORSEL_ROWS,
                 ) -> Iterator[dict[str, np.ndarray]]:
    """Carve a column batch into consecutive morsels (zero-copy views).

    The slices tile the batch in row order.  A batch that fits one morsel
    yields the batch's own arrays; an empty batch therefore yields one
    empty slice, so consumers always observe the schema.
    """
    arrays = {name: np.asarray(values) for name, values in columns.items()}
    num_rows = 0 if not arrays else int(len(next(iter(arrays.values()))))
    if morsel_count(num_rows, morsel_rows) == 1:
        yield arrays
        return
    for start in range(0, num_rows, morsel_rows):
        yield {name: values[start:start + morsel_rows]
               for name, values in arrays.items()}


def concat_columns(parts: Sequence[dict[str, np.ndarray]],
                   ) -> dict[str, np.ndarray]:
    """Reassemble per-morsel operator outputs into one column batch,
    consuming the parts.

    A single part's arrays are returned as they are (no copy), so a batch
    that fits one morsel is not copied at the chain's boundary.

    Otherwise each column is popped out of the part dicts as it is
    concatenated (the parts are mutable dicts the caller owns and gives
    up).  This bounds the reassembly peak: instead of holding every part
    *and* the full result until the end, at most one fully concatenated
    column's worth of parts is alive beyond the result — which is what
    keeps the materialization spike at a fused chain's boundary near the
    size of the output itself.
    """
    if not parts:
        raise ValueError("cannot concatenate zero batches")
    if len(parts) == 1:
        return dict(parts[0])
    names = list(parts[0])
    result: dict[str, np.ndarray] = {}
    for name in names:
        arrays = [np.asarray(part.pop(name)) for part in parts]
        result[name] = np.concatenate(arrays)
        del arrays
    return result
