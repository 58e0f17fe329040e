"""Exception hierarchy for the HAPE reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library-specific failures without masking programming
errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class HardwareError(ReproError):
    """Errors raised by the simulated hardware substrate."""


class OutOfDeviceMemoryError(HardwareError):
    """Raised when an allocation does not fit in a device's memory pool.

    The paper relies on this failure mode: DBMS G and the GPU-only Proteus
    configuration cannot run TPC-H Q9 because the intermediate hash tables
    exceed the aggregate GPU memory (Section 6.4).
    """

    def __init__(self, device: str, requested: int, available: int) -> None:
        self.device = device
        self.requested = int(requested)
        self.available = int(available)
        super().__init__(
            f"device {device!r} cannot allocate {requested} bytes "
            f"({available} bytes available)"
        )


class UnknownDeviceError(HardwareError):
    """Raised when a device id cannot be resolved in the topology."""


class NoRouteError(HardwareError):
    """Raised when two devices are not connected by any interconnect path."""


class StorageError(ReproError):
    """Errors raised by the columnar storage layer."""


class SchemaError(StorageError):
    """Raised when a column/table schema is inconsistent with its data."""


class CatalogError(StorageError):
    """Raised for unknown or duplicate table registrations."""


class PlanError(ReproError):
    """Raised when a logical or physical plan is malformed."""


class ExpressionError(PlanError):
    """Raised when an expression references unknown columns or mixes types."""


class ExecutionError(ReproError):
    """Raised when a plan cannot be executed on the simulated server."""


class UnsupportedQueryError(ExecutionError):
    """Raised by engines (notably the baselines) for unsupported queries.

    DBMS G in the paper "was unable to run on 3 queries"; the simulated
    baseline reports that through this exception instead of silently
    producing numbers.
    """


class OptimizerError(ReproError):
    """Raised when the heterogeneity-aware optimizer cannot place a plan."""


class FaultError(ReproError):
    """Base class for injected or detected runtime faults.

    The paper's evaluation is full of *real* failure modes — DBMS G and
    GPU-only Proteus cannot run TPC-H Q9 because intermediate hash tables
    exceed the aggregate GPU memory (Section 6.4), and heterogeneous
    servers lose accelerators, links and memory capacity in production.
    The fault taxonomy below lets the serving layer tell failures apart:
    device-scoped faults walk the mode-degradation ladder
    (gpu → hybrid → cpu), transient faults are retried, and both are
    bounded by deadlines.
    """


class DeviceUnavailableError(FaultError):
    """Raised when an execution mode needs a device kind with no available
    (non-failed) device — e.g. a GPU-mode query after every GPU failed.

    This is the serving-time analogue of the paper's "DBMS G was unable to
    run" rows: instead of silently producing numbers on hardware that is
    gone, the engine refuses and lets the server fail over to a mode the
    surviving devices can run.  ``device`` names the one device at fault
    when there is one (an injected device fault), so the circuit breaker
    can count the failure against it.
    """

    def __init__(self, kind: str, detail: str = "", *,
                 device: str | None = None) -> None:
        self.kind = kind
        self.device = device
        message = f"no available {kind} device"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class QueryTimeoutError(FaultError):
    """Raised (and recorded on tickets) when a query misses its deadline.

    Deadlines bound how long failover and retries may take: a query that
    would finish after ``submit_time + deadline`` is cut off at the
    deadline and its partial work is accounted as wasted simulated time.
    """

    def __init__(self, label: str, deadline: float) -> None:
        self.label = label
        self.deadline = float(deadline)
        super().__init__(
            f"query {label!r} exceeded its {deadline:.6f}s deadline")


class RetryExhaustedError(FaultError):
    """Raised when a query failed on every attempt its retry policy allows.

    Carries the last underlying error so reports can say *why* the final
    attempt failed, mirroring how the paper reports per-system failures
    instead of dropping queries silently.
    """

    def __init__(self, label: str, attempts: int,
                 last_error: Exception | None = None) -> None:
        self.label = label
        self.attempts = int(attempts)
        self.last_error = last_error
        detail = f": {last_error}" if last_error is not None else ""
        super().__init__(
            f"query {label!r} failed after {attempts} attempt(s){detail}")


class ServingError(ReproError):
    """Errors raised by the multi-tenant serving subsystem."""


class AdmissionError(ServingError):
    """Raised when the admission controller refuses a submission.

    Backpressure surfaces here: a tenant whose bounded queue is full, or
    whose query could never satisfy its memory budget, is rejected at
    submit time instead of being queued forever.
    """

    def __init__(self, tenant: str, reason: str) -> None:
        self.tenant = tenant
        self.reason = reason
        super().__init__(f"tenant {tenant!r}: {reason}")


class UnknownTenantError(ServingError):
    """Raised when a tenant name has no open session on the server."""
