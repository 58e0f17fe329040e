"""Execution modes / engine configurations used in the evaluation.

Figure 8 compares three configurations of the prototype: CPU-only (both
sockets), GPU-only (both GPUs) and hybrid (all CPUs and GPUs together).
"""

from __future__ import annotations

import enum


class ExecutionMode(enum.Enum):
    """Which devices a query is allowed to use."""

    CPU_ONLY = "cpu"
    GPU_ONLY = "gpu"
    HYBRID = "hybrid"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @classmethod
    def parse(cls, value: "ExecutionMode | str") -> "ExecutionMode":
        """Accepts either an enum member or its string value (one dict
        lookup)."""
        try:
            return _PARSED[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValueError(
                f"unknown execution mode {value!r}; expected one of "
                f"{[member.value for member in cls]}"
            ) from None

    @property
    def uses_cpus(self) -> bool:
        return self in (ExecutionMode.CPU_ONLY, ExecutionMode.HYBRID)

    @property
    def uses_gpus(self) -> bool:
        return self in (ExecutionMode.GPU_ONLY, ExecutionMode.HYBRID)


#: Each member under itself and under its value.
_PARSED = {key: member for member in ExecutionMode
           for key in (member, member.value)}
