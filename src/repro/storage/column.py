"""Columns: typed, NumPy-backed vectors with optional dictionaries."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import SchemaError
from .dtypes import DICT32, DataType, Dictionary, dtype_for_array


class Column:
    """One column of a table (or of an intermediate result block)."""

    def __init__(self, name: str, values: np.ndarray, dtype: DataType | None = None,
                 dictionary: Dictionary | None = None) -> None:
        if not name:
            raise SchemaError("columns need a non-empty name")
        values = np.asarray(values)
        if values.ndim != 1:
            raise SchemaError(f"column {name!r} must be one-dimensional")
        self.name = name
        self.dtype = dtype if dtype is not None else dtype_for_array(values)
        if values.dtype != self.dtype.numpy_dtype:
            values = values.astype(self.dtype.numpy_dtype)
        self.values = values
        self.dictionary = dictionary
        if self.dtype.is_dictionary and dictionary is None:
            raise SchemaError(
                f"dictionary-encoded column {name!r} needs a dictionary"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_strings(cls, name: str, values: Iterable[str]) -> "Column":
        """Build a dictionary-encoded column from raw strings."""
        labels, codes = np.unique(np.asarray(list(values), dtype=str),
                                  return_inverse=True)
        return cls(name, codes, DICT32, Dictionary(labels.tolist()))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Column({self.name!r}, {self.dtype.name}, n={len(self)})"

    @property
    def nbytes(self) -> int:
        """Bytes occupied by the column's values."""
        return int(self.values.nbytes)

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position, preserving type and dictionary."""
        return Column(self.name, self.values[indices], self.dtype, self.dictionary)

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep rows where ``mask`` is true."""
        if mask.dtype != np.bool_:
            raise SchemaError("filter mask must be boolean")
        return Column(self.name, self.values[mask], self.dtype, self.dictionary)

    def slice(self, start: int, stop: int) -> "Column":
        """A zero-copy horizontal slice (used to form blocks/packets)."""
        return Column(self.name, self.values[start:stop], self.dtype, self.dictionary)

    def decoded(self) -> list[str] | np.ndarray:
        """Human-readable values (decodes dictionary columns)."""
        if self.dictionary is not None:
            return self.dictionary.decode(self.values)
        return self.values

    def equals(self, other: "Column") -> bool:
        """Deep equality of name, type and values."""
        if self.name != other.name or self.dtype.name != other.dtype.name:
            return False
        if len(self) != len(other):
            return False
        if self.dtype.numpy_dtype.kind == "f":
            return bool(np.allclose(self.values, other.values))
        return bool(np.array_equal(self.values, other.values))
