"""The common result protocol shared by every launch entry point.

A single ensemble launch (:class:`~repro.host.ensemble_loader.EnsembleResult`)
and a scheduler job (:class:`~repro.sched.jobs.JobResult`) answer the same
questions: which instances ran, with which exit codes, did everything
succeed, what did instance *i* print, and how much simulated time was
spent.  :class:`EnsembleOutcome` names that contract so harness and report
code can consume either without isinstance ladders, and
:class:`OutcomeMixin` derives the boilerplate from ``instances`` for
concrete result classes.
"""

from __future__ import annotations

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


__all__ = ["EnsembleOutcome", "OutcomeMixin"]
