"""The unified launch surface: one spec for every way to run an ensemble.

Historically each entry point grew its own argument shape: ``Loader.run``
took an argv tail, ``EnsembleLoader.run_ensemble`` a path/text/token-list
union plus four keyword options, the batched campaign runner only
pre-parsed token lists, and the CLI yet another flag spelling.
:class:`LaunchSpec` collapses all of that: it names *what* to run (the
argument source and instance count) and *how* (thread limit, step cap,
timing collection), and is accepted uniformly by

* :meth:`repro.host.loader.Loader.run`,
* :meth:`repro.host.ensemble_loader.EnsembleLoader.run_ensemble`,
* :meth:`repro.sched.Scheduler.submit`.

Since v2.0 the spec is the only accepted shape (the v1 raw-source call
shapes raise ``TypeError`` with a migration hint).  The spec also names
the :mod:`execution backend <repro.runtime.backend>` — the compiled
block-table engine (``"compiled"``, the default) or the reference SIMT
interpreter (``"interp"``) — so a whole campaign switches engines by
changing one field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, Union

from repro.errors import LoaderError
from repro.faults.plan import FaultPlan
from repro.host.argfile import resolve_arg_source
from repro.runtime.backend import DEFAULT_BACKEND

#: Anything :func:`~repro.host.argfile.resolve_arg_source` understands.
ArgSource = Union[str, Path, Sequence[Sequence[str]]]

#: Default per-launch interpreter-step cap (matches the historical
#: ``run_ensemble`` default; generous enough for every shipped benchmark).
DEFAULT_MAX_STEPS = 400_000_000


@dataclass(frozen=True)
class LaunchSpec:
    """Everything needed to launch an ensemble, in one value.

    ``arg_source`` is an argument file path, raw argument-file text, or an
    already-parsed list of per-instance token lists (§3.2's ``-f``).
    ``num_instances`` is the paper's ``-n``: ``None`` runs every line, a
    smaller count runs a prefix, a larger count is an error.
    ``thread_limit`` is ``-t``; ``max_steps`` bounds interpreter steps per
    launch; ``collect_timing`` toggles the timing model.
    """

    arg_source: ArgSource
    num_instances: int | None = None
    thread_limit: int = 1024
    max_steps: int = DEFAULT_MAX_STEPS
    collect_timing: bool = True
    #: Execution engine for every launch of this workload: a name from
    #: :func:`repro.runtime.backend.available_backends` (``"compiled"``,
    #: the block-table engine and the default, or ``"interp"``, the
    #: reference SIMT interpreter).  Results are bitwise-identical across
    #: backends.
    backend: str = DEFAULT_BACKEND
    #: Optional chaos plan (a :class:`~repro.faults.plan.FaultPlan` or its
    #: spec-string form) carried with the workload; the entry surface that
    #: executes the spec arms it — the scheduler across its pool, the
    #: ensemble loader on its device.  ``None`` means ``NO_FAULTS``.
    fault_plan: FaultPlan | str | None = None
    #: Guard policy for certificate-aware backends: ``"unchecked"`` (the
    #: default — sites the :mod:`~repro.analysis.safety` certificate
    #: proves safe run guard-free), ``"checked"`` (dynamic guards
    #: everywhere; the ``--no-unchecked`` escape hatch), or ``"assert"``
    #: (guards stay armed and report certificate violations).
    safety_mode: str = "unchecked"

    def resolve_instances(self) -> list[list[str]]:
        """Resolve ``arg_source`` and apply the ``-n`` prefix rule."""
        instances = resolve_arg_source(self.arg_source)
        n = self.num_instances
        if n is None:
            return instances
        if n < 1:
            raise LoaderError("-n must request at least one instance")
        if n > len(instances):
            raise LoaderError(
                f"-n {n} requested but the argument file has only "
                f"{len(instances)} lines"
            )
        return instances[:n]

    def resolve_fault_plan(self) -> FaultPlan | None:
        """The spec's chaos plan as a parsed :class:`FaultPlan` (or None)."""
        if self.fault_plan is None:
            return None
        if isinstance(self.fault_plan, str):
            return FaultPlan.parse(self.fault_plan)
        return self.fault_plan

    def with_instances(self, instances: list[list[str]]) -> "LaunchSpec":
        """A copy of this spec over an explicit, already-resolved workload.

        Used by the scheduler to re-launch subsets
        (batches, shards, retries) under the original limits.
        """
        return replace(self, arg_source=instances, num_instances=None)

    # ------------------------------------------------------------------
    # wire shape (docs/serve.md)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """Versioned wire document (see :mod:`repro.wire`).

        The argument source is *resolved* at serialization time: a path
        or raw text becomes the explicit per-instance token lists, so the
        document is self-contained — a remote server never needs the
        submitting host's filesystem.  ``num_instances`` is folded into
        the resolution (the ``-n`` prefix rule) for the same reason.
        """
        from repro import wire

        plan = self.resolve_fault_plan()
        data = wire.envelope("LaunchSpec")
        data.update(
            instances=self.resolve_instances(),
            thread_limit=self.thread_limit,
            max_steps=self.max_steps,
            collect_timing=self.collect_timing,
            backend=self.backend,
            fault_plan=None if plan is None else plan.to_wire(),
            safety_mode=self.safety_mode,
        )
        return data

    @classmethod
    def from_wire(cls, data) -> "LaunchSpec":
        from repro import wire
        from repro.faults.plan import FaultPlan

        wire.check_envelope(data, "LaunchSpec")
        kind = "LaunchSpec"
        raw = wire.get_field(data, "instances", list, kind=kind)
        instances = []
        for line in raw:
            if not isinstance(line, list) or not all(
                isinstance(tok, str) for tok in line
            ):
                raise wire.WireError(
                    f"{kind}: instances must be lists of string tokens"
                )
            instances.append(list(line))
        plan_data = wire.get_field(data, "fault_plan", dict, None, kind=kind)
        return cls(
            arg_source=instances,
            num_instances=None,
            thread_limit=wire.get_field(
                data, "thread_limit", int, 1024, kind=kind
            ),
            max_steps=wire.get_field(
                data, "max_steps", int, DEFAULT_MAX_STEPS, kind=kind
            ),
            collect_timing=wire.get_field(
                data, "collect_timing", bool, True, kind=kind
            ),
            backend=wire.get_field(data, "backend", str, DEFAULT_BACKEND, kind=kind),
            fault_plan=None
            if plan_data is None
            else FaultPlan.from_wire(plan_data),
            safety_mode=wire.get_field(
                data, "safety_mode", str, "unchecked", kind=kind
            ),
        )


__all__ = ["ArgSource", "LaunchSpec", "DEFAULT_MAX_STEPS"]
