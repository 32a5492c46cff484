"""Jobs, futures, and job results for the ensemble scheduler.

A *job* is one campaign: an application (DSL program or compiled module),
a :class:`~repro.host.launch.LaunchSpec` describing the workload and its
limits, a transient-fault retry bound, and an optional deadline expressed
as an interpreter-step budget.  Submitting a job yields a
:class:`JobFuture`; the scheduler shards the job across the device pool
and resolves the future with a :class:`JobResult` (or the terminal error).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import SchedulerError
from repro.faults.report import FaultReport
from repro.host.ensemble_loader import InstanceOutcome
from repro.host.launch import LaunchSpec
from repro.host.results import OutcomeMixin

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.scheduler import Scheduler


class JobState(enum.Enum):
    """Lifecycle of a submitted job: PENDING -> RUNNING -> terminal."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED)


@dataclass
class BatchRecord:
    """One successful launch within a job: where it started, how many
    instances it ran, and its simulated cycles (``None`` when untimed)."""

    first_instance: int
    size: int
    cycles: float | None

    # -- wire shape (docs/serve.md) -----------------------------------------
    def to_wire(self) -> dict:
        """Versioned wire document (see :mod:`repro.wire`)."""
        from repro import wire

        data = wire.envelope("BatchRecord")
        data.update(
            first_instance=self.first_instance,
            size=self.size,
            cycles=self.cycles,
        )
        return data

    @classmethod
    def from_wire(cls, data) -> "BatchRecord":
        from repro import wire

        wire.check_envelope(data, "BatchRecord")
        kind = "BatchRecord"
        cycles = wire.get_field(data, "cycles", (int, float), None, kind=kind)
        return cls(
            first_instance=wire.get_field(data, "first_instance", int, kind=kind),
            size=wire.get_field(data, "size", int, kind=kind),
            cycles=None if cycles is None else float(cycles),
        )


@dataclass
class JobResult(OutcomeMixin):
    """Aggregated outcome of one scheduled job.

    Implements the :class:`~repro.host.results.EnsembleOutcome` protocol;
    ``instances`` is ordered by global instance index regardless of which
    device ran which shard.
    """

    job_id: int
    instances: list[InstanceOutcome]
    batches: list[BatchRecord] = field(default_factory=list)
    total_cycles: float | None = None
    retries: int = 0
    oom_splits: int = 0
    steps_used: int = 0
    #: One report per injected fault that could not be recovered and was
    #: isolated into this job's instances (``exit_code == FAULT_EXIT``);
    #: a degraded-but-completed job carries them instead of an error.
    fault_reports: list[FaultReport] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any instance was fault-isolated."""
        return bool(self.fault_reports)

    # -- wire shape (docs/serve.md) -----------------------------------------
    def to_wire(self) -> dict:
        """Versioned wire document (see :mod:`repro.wire`)."""
        from repro import wire

        data = wire.envelope("JobResult")
        data.update(
            job_id=self.job_id,
            instances=[o.to_wire() for o in self.instances],
            batches=[b.to_wire() for b in self.batches],
            total_cycles=self.total_cycles,
            retries=self.retries,
            oom_splits=self.oom_splits,
            steps_used=self.steps_used,
            fault_reports=[r.to_wire() for r in self.fault_reports],
        )
        return data

    @classmethod
    def from_wire(cls, data) -> "JobResult":
        from repro import wire

        wire.check_envelope(data, "JobResult")
        kind = "JobResult"
        cycles = wire.get_field(
            data, "total_cycles", (int, float), None, kind=kind
        )
        return cls(
            job_id=wire.get_field(data, "job_id", int, kind=kind),
            instances=[
                InstanceOutcome.from_wire(o)
                for o in wire.get_field(data, "instances", list, kind=kind)
            ],
            batches=[
                BatchRecord.from_wire(b)
                for b in wire.get_field(data, "batches", list, [], kind=kind)
            ],
            total_cycles=None if cycles is None else float(cycles),
            retries=wire.get_field(data, "retries", int, 0, kind=kind),
            oom_splits=wire.get_field(data, "oom_splits", int, 0, kind=kind),
            steps_used=wire.get_field(data, "steps_used", int, 0, kind=kind),
            fault_reports=[
                FaultReport.from_wire(r)
                for r in wire.get_field(
                    data, "fault_reports", list, [], kind=kind
                )
            ],
        )


@dataclass
class JobTicket:
    """Pure-data identity of a submitted job.

    Historically :class:`JobFuture` was the only handle to a job — and it
    holds the live scheduler, so it could never be pickled, JSON-encoded,
    or handed to another process.  The ticket is the serializable half of
    that split: ids and provenance only, no live references.  It is what
    crosses the ``repro.serve`` wire, and
    :meth:`~repro.sched.scheduler.Scheduler.future_of` turns it back into
    a live handle on the owning scheduler.

    ``state`` is a snapshot as of the last refresh, not a live view.
    """

    job_id: int
    tenant: str = ""
    #: Content hash of the submitted spec's wire form
    #: (:func:`repro.wire.spec_hash`): two tickets with equal hashes
    #: describe the same resolved workload under the same limits.
    spec_hash: str = ""
    state: JobState = JobState.PENDING

    # -- wire shape (docs/serve.md) -----------------------------------------
    def to_wire(self) -> dict:
        """Versioned wire document (see :mod:`repro.wire`)."""
        from repro import wire

        data = wire.envelope("JobTicket")
        data.update(
            job_id=self.job_id,
            tenant=self.tenant,
            spec_hash=self.spec_hash,
            state=self.state.value,
        )
        return data

    @classmethod
    def from_wire(cls, data) -> "JobTicket":
        from repro import wire

        wire.check_envelope(data, "JobTicket")
        kind = "JobTicket"
        raw_state = wire.get_field(
            data, "state", str, JobState.PENDING.value, kind=kind
        )
        try:
            state = JobState(raw_state)
        except ValueError:
            raise wire.WireError(
                f"{kind}: unknown state {raw_state!r}"
            ) from None
        return cls(
            job_id=wire.get_field(data, "job_id", int, kind=kind),
            tenant=wire.get_field(data, "tenant", str, "", kind=kind),
            spec_hash=wire.get_field(data, "spec_hash", str, "", kind=kind),
            state=state,
        )


@dataclass
class Job:
    """Scheduler-internal bookkeeping for one submitted campaign."""

    job_id: int
    program: Any
    spec: LaunchSpec
    instances: list[list[str]]
    retries: int
    step_budget: int | None
    loader_opts: dict[str, Any] = field(default_factory=dict)
    #: Owning tenant (the fair-share identity under ``repro.serve``; the
    #: empty string for direct library submissions).
    tenant: str = ""
    #: Job-scoped fault injector: set by a scheduler constructed with
    #: ``job_scoped_faults=True`` when the spec carries a plan, so one
    #: tenant's chaos cannot leak into another tenant's campaign.
    injector: Any = None

    state: JobState = JobState.PENDING
    error: BaseException | None = None
    outcomes: dict[int, InstanceOutcome] = field(default_factory=dict)
    batches: list[BatchRecord] = field(default_factory=list)
    cycles: float = 0.0
    have_cycles: bool = True
    steps_used: int = 0
    retries_used: int = 0
    oom_splits: int = 0
    fault_reports: list[FaultReport] = field(default_factory=list)

    @property
    def total_instances(self) -> int:
        return len(self.instances)

    @property
    def pending_instances(self) -> int:
        return len(self.instances) - len(self.outcomes)

    @property
    def steps_remaining(self) -> int | None:
        if self.step_budget is None:
            return None
        return self.step_budget - self.steps_used

    def to_result(self) -> JobResult:
        return JobResult(
            job_id=self.job_id,
            instances=[self.outcomes[i] for i in sorted(self.outcomes)],
            batches=list(self.batches),
            total_cycles=self.cycles if self.have_cycles else None,
            retries=self.retries_used,
            oom_splits=self.oom_splits,
            steps_used=self.steps_used,
            fault_reports=list(self.fault_reports),
        )


class JobFuture:
    """Live handle to a submitted job.

    The scheduler advances in deterministic simulated time, so
    :meth:`result` *drives* the scheduler until this job resolves rather
    than blocking on a thread — callers get future semantics with
    reproducible execution order.

    A future is a thin pair: a serializable :class:`JobTicket` (exposed
    as :attr:`ticket`) plus the owning scheduler.  All result plumbing
    routes through the ticket's ``job_id`` — the future itself holds no
    job state, so dropping it loses nothing:
    ``scheduler.future_of(ticket)`` reconstructs an equivalent handle.
    """

    def __init__(self, ticket: JobTicket, scheduler: "Scheduler"):
        self.ticket = ticket
        self._scheduler = scheduler

    def _job(self) -> Job:
        return self._scheduler._job_of(self.ticket)

    @property
    def job_id(self) -> int:
        return self.ticket.job_id

    @property
    def state(self) -> JobState:
        state = self._job().state
        self.ticket.state = state  # the ticket snapshot tracks reads
        return state

    def done(self) -> bool:
        return self.state.terminal

    def cancel(self) -> bool:
        """Drop the job if no shard of it has run yet."""
        cancelled = self._scheduler._cancel(self._job())
        self.ticket.state = self._job().state
        return cancelled

    def exception(self) -> BaseException | None:
        """Drive the scheduler until this job resolves; return its error."""
        job = self._job()
        self._scheduler._drive(job)
        self.ticket.state = job.state
        return job.error

    def result(self) -> JobResult:
        """Drive the scheduler until this job resolves; return or raise."""
        job = self._job()
        self._scheduler._drive(job)
        self.ticket.state = job.state
        if job.state is JobState.COMPLETED:
            return job.to_result()
        if job.error is not None:
            raise job.error
        raise SchedulerError(
            f"job {job.job_id} ended in state {job.state.value} "
            "without a result"
        )


__all__ = ["BatchRecord", "Job", "JobFuture", "JobResult", "JobState", "JobTicket"]
