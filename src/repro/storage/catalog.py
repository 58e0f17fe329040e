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

from typing import Callable

from ..errors import CatalogError
from ..stats.statistics import TableStatistics, collect_table_statistics
from .table import Table


class Catalog:
    """Registry of the tables known to an engine instance.

    One thread drives a session or a server, so each registration
    (version bump plus listener notification) completes before anything
    reads the catalog again: table versions are strictly monotonic, and
    no reader sees a table's new version before the invalidation for the
    old one has been delivered.  Listeners must not call back into the
    catalog's mutating methods (the engine's cache invalidation does not).
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._statistics: dict[str, TableStatistics] = {}
        self._versions: dict[str, int] = {}
        self._next_version = 1
        #: Bumped by every :meth:`register` and :meth:`drop`: while it
        #: stands, :attr:`table_versions` has not changed.
        self.revision = 0
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
        statistics = collect_table_statistics(table)
        replacing = table.name in self._tables
        if replacing and not replace:
            raise CatalogError(
                f"table {table.name!r} is already registered")
        self._tables[table.name] = table
        self._statistics[table.name] = statistics
        self._versions[table.name] = self._next_version
        self._next_version += 1
        self.revision += 1
        if replacing:
            self._notify(table.name)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(
                f"unknown table {name!r}; registered: {list(self._tables)}"
            ) from exc

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
        self.table(name)
        return self._versions[name]

    @property
    def table_versions(self) -> dict[str, int]:
        """Snapshot of every registered table's current catalog version."""
        return dict(self._versions)

    def subscribe(self, listener: Callable[[str], None]) -> None:
        """Add an invalidation listener.

        ``listener(name)`` is called whenever the data behind ``name``
        changes from a reader's point of view: a ``register(replace=True)``
        over an existing table, or a :meth:`drop`.  The engine's query
        cache subscribes to discard cached kernel results that read the
        table.  Delivery happens inside the call that bumped the version,
        so a subscriber can never observe a new version whose
        invalidation has not yet arrived.
        """
        self._listeners.append(listener)

    def drop(self, name: str) -> None:
        """Remove a table and notify invalidation listeners.

        The name's version is retired, never reused: a later re-register
        of the same name gets a fresh version, so caches cannot confuse
        results computed against the dropped data with the new table's.
        """
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[name]
        del self._statistics[name]
        del self._versions[name]
        self.revision += 1
        self._notify(name)

    def _notify(self, name: str) -> None:
        for listener in list(self._listeners):
            listener(name)
