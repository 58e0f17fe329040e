"""Column data types for the columnar storage layer.

The engine stores data as NumPy arrays; :class:`DataType` wraps the NumPy
dtype with the metadata the cost model needs (width in bytes) and the
semantic flavour queries need (dates, dictionary-encoded strings).

Dates are stored as ``int32`` values in ``YYYYMMDD`` form: range predicates
stay plain integer comparisons and extracting the year (needed by TPC-H Q9)
is a division by 10000.  Strings are dictionary-encoded: the column stores
``int32`` codes and the column's :class:`Dictionary` stores the distinct
values, which mirrors what columnar analytical engines do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError


@dataclass(frozen=True)
class DataType:
    """A storage-level column type."""

    name: str
    numpy_dtype: np.dtype
    is_date: bool = False
    is_dictionary: bool = False

    @property
    def itemsize(self) -> int:
        """Width of one value in bytes."""
        return int(self.numpy_dtype.itemsize)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


INT32 = DataType("int32", np.dtype(np.int32))
INT64 = DataType("int64", np.dtype(np.int64))
FLOAT32 = DataType("float32", np.dtype(np.float32))
FLOAT64 = DataType("float64", np.dtype(np.float64))
DATE = DataType("date", np.dtype(np.int32), is_date=True)
DICT32 = DataType("dict32", np.dtype(np.int32), is_dictionary=True)
BOOL = DataType("bool", np.dtype(np.bool_))

def dtype_for_array(values: np.ndarray) -> DataType:
    """Infer the storage type for a NumPy array."""
    kind = values.dtype.kind
    if kind == "b":
        return BOOL
    if kind in ("i", "u"):
        return INT64 if values.dtype.itemsize > 4 else INT32
    if kind == "f":
        return FLOAT64 if values.dtype.itemsize > 4 else FLOAT32
    raise SchemaError(f"unsupported NumPy dtype {values.dtype!r}")


def date_to_int(text: str) -> int:
    """Convert an ISO date string (``"1998-12-01"``) to YYYYMMDD."""
    parts = text.split("-")
    if len(parts) != 3:
        raise ValueError(f"not an ISO date: {text!r}")
    year, month, day = (int(part) for part in parts)
    if not (1 <= month <= 12 and 1 <= day <= 31):
        raise ValueError(f"not a valid calendar date: {text!r}")
    return year * 10000 + month * 100 + day


def int_to_date(value: int) -> str:
    """Convert a YYYYMMDD integer back to an ISO date string."""
    value = int(value)
    return f"{value // 10000:04d}-{(value // 100) % 100:02d}-{value % 100:02d}"


def year_of(date_values: np.ndarray) -> np.ndarray:
    """Vectorized YEAR() over a YYYYMMDD date column."""
    return date_values // 10000


class Dictionary:
    """The distinct values backing a dictionary-encoded column."""

    def __init__(self, values: list[str]) -> None:
        if len(set(values)) != len(values):
            raise SchemaError("dictionary values must be distinct")
        self._values = list(values)
        self._codes = {value: code for code, value in enumerate(values)}

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dictionary):
            return NotImplemented
        return self._values == other._values

    def code(self, value: str) -> int:
        """Encode a value; raises ``KeyError`` for unknown values."""
        return self._codes[value]

    def value(self, code: int) -> str:
        """Decode a code back to its value."""
        return self._values[code]

    def encode(self, values: list[str] | np.ndarray) -> np.ndarray:
        """Encode a sequence of values into int32 codes."""
        return np.asarray([self._codes[value] for value in values], dtype=np.int32)

    def decode(self, codes: np.ndarray) -> list[str]:
        """Decode an array of codes into their string values."""
        return [self._values[int(code)] for code in codes]

    @property
    def values(self) -> tuple[str, ...]:
        return tuple(self._values)
