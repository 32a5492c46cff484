"""The common result protocol shared by every launch entry point.

A single ensemble launch (:class:`~repro.host.ensemble_loader.EnsembleResult`)
and a scheduler job (:class:`~repro.sched.jobs.JobResult`) answer the same
questions: which instances ran, with which exit codes, did everything
succeed, what did instance *i* print, and how much simulated time was
spent.  :class:`EnsembleOutcome` names that contract so harness and report
code can consume either without isinstance ladders, and
:class:`OutcomeMixin` derives the boilerplate from ``instances`` for
concrete result classes.  :class:`Observables` is what any run produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.host.ensemble_loader import InstanceOutcome


@runtime_checkable
class EnsembleOutcome(Protocol):
    """What every multi-instance run result can report."""

    @property
    def instances(self) -> list["InstanceOutcome"]: ...

    @property
    def return_codes(self) -> list[int]: ...

    @property
    def all_succeeded(self) -> bool: ...

    @property
    def total_cycles(self) -> float | None: ...

    def stdout_of(self, index: int) -> str: ...


class OutcomeMixin:
    """Derives the protocol's accessors from an ``instances`` attribute.

    ``instances`` must hold
    :class:`~repro.host.ensemble_loader.InstanceOutcome` records ordered by
    global instance index.
    """

    @property
    def return_codes(self) -> list[int]:
        return [o.exit_code for o in self.instances]

    @property
    def all_succeeded(self) -> bool:
        return all(o.exit_code == 0 for o in self.instances)

    def stdout_of(self, index: int) -> str:
        return self.instances[index].stdout


@dataclass(frozen=True)
class Observables:
    """What a run observably produced, in bitwise-comparable form: the
    value every equivalence check compares (which fields each axis keeps
    is the differential test oracle's table).  A run ended by a
    :class:`~repro.errors.DeviceTrap` is ``Observables(trap=str(exc))``.
    """

    #: ``(index, args, exit_code, stdout, fault_kind)`` per instance.
    instances: tuple = ()
    steps: int | None = None  #: retired interpreter steps
    cycles: float | None = None  #: simulated cycles (None when untimed)
    trap: str | None = None

    @classmethod
    def of(cls, result) -> "Observables":
        """From a :class:`~repro.host.loader.RunResult` (one instance:
        index 0, no args), an
        :class:`~repro.host.ensemble_loader.EnsembleResult`, a
        :class:`~repro.sched.jobs.JobResult` (local or served) or an
        :class:`~repro.frontend.autoensemble.AutoEnsembleOutcome`, which
        exposes only its instances (no fault kind, steps or cycles).
        Any other type raises :class:`TypeError`."""
        from repro.frontend.autoensemble import AutoEnsembleOutcome
        from repro.host.ensemble_loader import EnsembleResult
        from repro.host.loader import RunResult
        from repro.sched.jobs import JobResult

        if isinstance(result, RunResult):
            one = (0, (), result.exit_code, result.stdout, None)
            return cls((one,), result.launch.interpreter_steps, result.cycles)
        if isinstance(result, AutoEnsembleOutcome):
            return cls(
                tuple(
                    (r.index, tuple(r.args), r.exit_code, r.stdout, None)
                    for r in result.instances
                )
            )
        if isinstance(result, EnsembleResult):
            steps = result.launch.interpreter_steps
        elif isinstance(result, JobResult):
            steps = result.steps_used
        else:
            raise TypeError(f"no observables for {type(result).__name__}")
        return cls(
            tuple(
                (o.index, tuple(o.args), o.exit_code, o.stdout,
                 None if o.fault is None else o.fault.kind)
                for o in result.instances
            ),
            steps,
            result.total_cycles,
        )


__all__ = ["EnsembleOutcome", "Observables", "OutcomeMixin"]
