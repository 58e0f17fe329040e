"""A minimal catalog mapping table names to tables and their statistics.

Besides the name → table mapping the catalog maintains two things the
cross-query kernel cache (:mod:`repro.engine.querycache`) relies on:

* a **catalog version** per registered table — a session-wide monotonic
  counter bumped on every (re-)registration, so a structural plan key that
  folds the version in can never match results computed against replaced
  data, and
* an **invalidation feed** — callables added with :meth:`Catalog.subscribe`
  are invoked with the table name whenever a registration replaces an
  existing table or a table is dropped, letting caches discard exactly the
  entries that read the changed table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from ..errors import CatalogError
from ..stats.statistics import TableStatistics, collect_table_statistics
from .table import Table


@dataclass(frozen=True)
class TableStats:
    """Basic statistics the optimizer and the cost model consume."""

    num_rows: int
    nbytes: int
    distinct_counts: dict[str, int]

    def distinct(self, column: str) -> int:
        """Distinct count for a column (falls back to row count)."""
        return self.distinct_counts.get(column, self.num_rows)


class Catalog:
    """Registry of the tables known to an engine instance.

    Thread-safe: a re-entrant lock makes each registration (version bump
    plus listener notification) atomic, so sessions running on concurrent
    worker threads observe table versions strictly monotonically — a
    reader can never see the new version of a table before the
    invalidation for the old one has been delivered.  Listeners are
    invoked *under* the lock; they must not call back into the catalog's
    mutating methods (the engine's cache invalidation does not).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._tables: dict[str, Table] = {}
        self._stats: dict[str, TableStats] = {}
        self._statistics: dict[str, TableStatistics] = {}
        self._versions: dict[str, int] = {}
        self._next_version = 1
        self._listeners: list[Callable[[str], None]] = []

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    def register(self, table: Table, *, replace: bool = False) -> None:
        """Add a table; refuses to silently overwrite unless ``replace``.

        Every registration assigns the table a fresh catalog version (a
        session-wide monotonic counter, :meth:`version`).  Re-registering
        an existing name with ``replace=True`` additionally notifies every
        :meth:`subscribe` listener, so caches keyed on the old version drop
        exactly the entries that read the replaced table.  A first-time
        registration notifies nobody — no cached entry can reference a
        table that was never scannable.
        """
        # Statistics collection (the expensive part: sampling, unique
        # counts, histograms) happens outside the lock; only the swap-in
        # is atomic with the version bump and invalidation delivery.
        statistics = collect_table_statistics(table)
        stats = _basic_stats(table, statistics)
        with self._lock:
            replacing = table.name in self._tables
            if replacing and not replace:
                raise CatalogError(
                    f"table {table.name!r} is already registered")
            self._tables[table.name] = table
            self._stats[table.name] = stats
            self._statistics[table.name] = statistics
            self._versions[table.name] = self._next_version
            self._next_version += 1
            if replacing:
                self._notify(table.name)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(
                f"unknown table {name!r}; registered: {list(self._tables)}"
            ) from exc

    def stats(self, name: str) -> TableStats:
        self.table(name)
        return self._stats[name]

    def statistics(self, name: str) -> TableStatistics:
        """Full per-column statistics (NDV, min/max, histograms).

        Collected at :meth:`register` time and retired with the table:
        a ``register(replace=True)`` swaps in statistics of the new data
        atomically with the version bump, and :meth:`drop` removes them —
        an estimate can never be derived from statistics of stale data.
        """
        self.table(name)
        return self._statistics[name]

    def version(self, name: str) -> int:
        """Catalog version of a registered table.

        Versions are unique per registration event: re-registering a name
        (or dropping and registering it again) always yields a version no
        earlier registration ever had.
        """
        with self._lock:
            self.table(name)
            return self._versions[name]

    @property
    def table_versions(self) -> dict[str, int]:
        """Snapshot of every registered table's current catalog version."""
        with self._lock:
            return dict(self._versions)

    def subscribe(self, listener: Callable[[str], None]) -> None:
        """Add an invalidation listener.

        ``listener(name)`` is called whenever the data behind ``name``
        changes from a reader's point of view: a ``register(replace=True)``
        over an existing table, or a :meth:`drop`.  The engine's query
        cache subscribes to discard cached kernel results that read the
        table.  Delivery is atomic with the version bump that caused it
        (both happen under the catalog lock), so a subscriber can never
        observe a new version whose invalidation has not yet arrived.
        """
        with self._lock:
            self._listeners.append(listener)

    def drop(self, name: str) -> None:
        """Remove a table and notify invalidation listeners.

        The name's version is retired, never reused: a later re-register
        of the same name gets a fresh version, so caches cannot confuse
        results computed against the dropped data with the new table's.
        """
        with self._lock:
            if name not in self._tables:
                raise CatalogError(f"unknown table {name!r}")
            del self._tables[name]
            del self._stats[name]
            del self._statistics[name]
            del self._versions[name]
            self._notify(name)

    def total_bytes(self) -> int:
        """Aggregate footprint of every registered table."""
        return sum(table.nbytes for table in self._tables.values())

    def _notify(self, name: str) -> None:
        for listener in list(self._listeners):
            listener(name)


def _basic_stats(table: Table, statistics: TableStatistics) -> TableStats:
    """Derive the legacy basic stats from the full per-column statistics.

    The full collection uses the identical sampling discipline (seeded
    100k-row sample above 200k rows), so the distinct counts here are the
    same numbers the old standalone computation produced.
    """
    return TableStats(
        num_rows=table.num_rows,
        nbytes=table.nbytes,
        distinct_counts={name: stats.ndv
                         for name, stats in statistics.columns.items()},
    )
