"""Tables: ordered collections of equal-length columns."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from .column import Column
from .dtypes import DataType


class Table:
    """An in-memory columnar table.

    Tables are immutable from the engine's point of view: operators build new
    tables rather than mutating inputs.  A table optionally records which
    simulated memory node its data resides on (``location``); the optimizer
    and the ``mem-move`` operator use this for the data-locality trait.
    """

    def __init__(self, name: str, columns: Sequence[Column], *,
                 location: str = "cpu0") -> None:
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise SchemaError(
                f"table {name!r} has columns of different lengths: {lengths}"
            )
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate column names")
        self.name = name
        self._columns: dict[str, Column] = {col.name: col for col in columns}
        self.location = location

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, name: str, arrays: Mapping[str, np.ndarray], *,
                    location: str = "cpu0") -> "Table":
        """Build a table from a mapping of column name to NumPy array."""
        columns = [Column(col_name, values) for col_name, values in arrays.items()]
        return cls(name, columns, location=location)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Table({self.name!r}, rows={self.num_rows}, cols={self.column_names})"

    def __len__(self) -> int:
        return self.num_rows

    @property
    def num_rows(self) -> int:
        return len(next(iter(self._columns.values())))

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns.keys())

    @property
    def columns(self) -> tuple[Column, ...]:
        return tuple(self._columns.values())

    @property
    def nbytes(self) -> int:
        """Total bytes of all column data."""
        return sum(column.nbytes for column in self._columns.values())

    def schema(self) -> dict[str, DataType]:
        return {name: column.dtype for name, column in self._columns.items()}

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError as exc:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {list(self._columns)}"
            ) from exc

    def array(self, name: str) -> np.ndarray:
        """Shortcut for ``table.column(name).values``."""
        return self.column(name).values

    def arrays(self) -> dict[str, np.ndarray]:
        """All columns as a name → array mapping (the operators' format)."""
        return {name: column.values for name, column in self._columns.items()}

    # ------------------------------------------------------------------
    # Row-wise operations
    # ------------------------------------------------------------------
    def select(self, names: Iterable[str]) -> "Table":
        """Project to a subset of columns, preserving order of ``names``."""
        return Table(self.name, [self.column(name) for name in names],
                     location=self.location)

    def take(self, indices: np.ndarray) -> "Table":
        """Gather rows by position."""
        return Table(self.name, [col.take(indices) for col in self.columns],
                     location=self.location)

    def filter(self, mask: np.ndarray) -> "Table":
        """Keep rows where ``mask`` is true."""
        return Table(self.name, [col.filter(mask) for col in self.columns],
                     location=self.location)

    def slice(self, start: int, stop: int) -> "Table":
        """Horizontal slice (used to carve morsels/packets)."""
        return Table(self.name, [col.slice(start, stop) for col in self.columns],
                     location=self.location)

    def rename(self, name: str) -> "Table":
        return Table(name, list(self.columns), location=self.location)

    def with_location(self, location: str) -> "Table":
        """Same data, recorded as resident on a different memory node."""
        return Table(self.name, list(self.columns), location=location)

    def head(self, n: int = 5) -> dict[str, list]:
        """First ``n`` rows in decoded, human-readable form."""
        result: dict[str, list] = {}
        for column in self.columns:
            decoded = column.decoded()
            result[column.name] = list(decoded[:n])
        return result

    def sort_by(self, names: Sequence[str]) -> "Table":
        """Stable sort by the given columns (used to compare results)."""
        keys = [self.array(name) for name in reversed(list(names))]
        order = np.lexsort(keys)
        return self.take(order)

    def equals(self, other: "Table", *, check_order: bool = True) -> bool:
        """Deep equality; with ``check_order=False`` rows may be permuted."""
        if self.column_names != other.column_names:
            return False
        if self.num_rows != other.num_rows:
            return False
        left, right = self, other
        if not check_order:
            left = left.sort_by(list(left.column_names))
            right = right.sort_by(list(right.column_names))
        return all(
            left.column(name).equals(right.column(name))
            for name in self.column_names
        )
