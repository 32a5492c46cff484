"""Exception hierarchy for the repro package.

Every error raised by the compiler, the device model, or the runtime derives
from :class:`ReproError` so callers can catch the whole family at once.  The
sub-hierarchy mirrors the pipeline stages: frontend -> IR -> passes ->
device/runtime -> host loader.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Compilation-stage errors
# ---------------------------------------------------------------------------


class FrontendError(ReproError):
    """Source program rejected by the restricted-Python frontend."""

    def __init__(self, message: str, *, line: int | None = None, func: str | None = None):
        self.line = line
        self.func = func
        loc = ""
        if func is not None:
            loc += f" in {func}()"
        if line is not None:
            loc += f" at line {line}"
        super().__init__(f"{message}{loc}")


class TypeInferenceError(FrontendError):
    """A value's type could not be inferred or two types conflicted."""


class UnsupportedConstructError(FrontendError):
    """A Python construct outside the supported device subset was used."""


class IRError(ReproError):
    """Malformed IR detected (builder misuse or verifier failure)."""


class VerifierError(IRError):
    """The IR verifier found a structural violation."""


class PassError(ReproError):
    """A transformation pass failed."""


class AnalysisError(ReproError):
    """A static-analysis query was malformed or an analysis failed."""


class LinkError(ReproError):
    """Symbol resolution at link time failed (undefined/duplicate symbol)."""


# ---------------------------------------------------------------------------
# Device / runtime errors
# ---------------------------------------------------------------------------


class DeviceError(ReproError):
    """Base class for errors raised by the simulated device."""


class DeviceOutOfMemory(DeviceError):
    """Device global-memory allocation failed.

    Mirrors ``cudaErrorMemoryAllocation``: raised by the allocator when a
    request does not fit in the configured device memory capacity.  The
    Page-Rank experiment relies on this to reproduce the paper's
    "due to memory limitations" cap at four instances.
    """

    def __init__(self, requested: int, free: int, capacity: int):
        self.requested = requested
        self.free = free
        self.capacity = capacity
        super().__init__(
            f"device out of memory: requested {requested} bytes, "
            f"{free} free of {capacity} total"
        )


class LaunchError(DeviceError):
    """Kernel launch configuration is invalid for the device."""


class DeviceTrap(DeviceError):
    """The device program executed a trap (assertion failure, bad memory...)."""

    def __init__(self, message: str, *, team: int | None = None, thread: int | None = None):
        self.message = message
        self.team = team
        self.thread = thread
        where = ""
        if team is not None:
            where += f" [team {team}"
            where += f", thread {thread}]" if thread is not None else "]"
        super().__init__(f"device trap: {message}{where}")


class MemoryFault(DeviceTrap):
    """Out-of-bounds or misaligned access to simulated device memory."""


class RPCError(DeviceError):
    """Host RPC transport or handler failure."""


# ---------------------------------------------------------------------------
# Host / loader errors
# ---------------------------------------------------------------------------


class LoaderError(ReproError):
    """The host loader was misused (bad arguments, missing program...)."""


class ArgFileError(LoaderError):
    """The ensemble argument file could not be parsed."""


class EnsembleSafetyError(LoaderError):
    """A multi-instance launch was refused by the static safety gate.

    Raised by the ensemble loader when ``repro.analysis`` reports
    error-severity cross-instance race diagnostics for the linked module
    and the caller did not pass ``allow_races=True``.  The offending
    :class:`~repro.analysis.diagnostics.Diagnostic` records are attached
    as ``diagnostics``.
    """

    def __init__(self, message: str, diagnostics=()):
        self.diagnostics = list(diagnostics)
        super().__init__(message)


class ArgScriptError(LoaderError):
    """The argument-generation script language rejected its input."""


class AutoEnsembleError(LoaderError):
    """A driver loop could not be auto-ensembled.

    Raised by :func:`repro.frontend.autoensemble.auto_launch` when the
    static loop-dependence analyzer proves (or cannot disprove) that the
    loop's iterations are order-dependent, or when the trace/replay
    engine detects a nondeterministic driver.  The structured
    :class:`~repro.analysis.diagnostics.Diagnostic` findings — naming the
    offending variable, the dependence kind, and the source line — are
    attached as ``diagnostics``.
    """

    def __init__(self, message: str, diagnostics=()):
        self.diagnostics = list(diagnostics)
        super().__init__(message)


# ---------------------------------------------------------------------------
# Scheduler errors
# ---------------------------------------------------------------------------


class SchedulerError(ReproError):
    """Base class for errors raised by the multi-device scheduler."""


class JobFailed(SchedulerError):
    """A scheduled job terminated without completing all its instances.

    ``cause`` carries the underlying terminal error (e.g. a
    :class:`DeviceOutOfMemory` at batch size one or an
    :class:`EnsembleSafetyError` from the launch gate).
    """

    def __init__(self, message: str, *, job_id: int | None = None, cause=None):
        self.job_id = job_id
        self.cause = cause
        super().__init__(message)


class DeadlineExceeded(JobFailed):
    """A job exhausted its interpreter-step budget before finishing."""


class RetriesExhausted(JobFailed):
    """A job's instances kept faulting past the configured retry bound."""


# ---------------------------------------------------------------------------
# Serving errors
# ---------------------------------------------------------------------------


class ServeError(ReproError):
    """A ``repro.serve`` request was refused or failed.

    ``code`` is one of the stable wire error codes
    (:data:`repro.wire.ERROR_CODES`) so callers can branch on the machine
    contract rather than the human-readable message.
    """

    def __init__(self, message: str, *, code: str = "E_INTERNAL"):
        self.code = code
        super().__init__(message)
