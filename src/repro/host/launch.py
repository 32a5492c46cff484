"""The unified launch surface: one spec for every way to run an ensemble.

Historically each entry point grew its own argument shape: ``Loader.run``
took an argv tail, ``EnsembleLoader.run_ensemble`` a path/text/token-list
union plus four keyword options, the batched campaign runner only
pre-parsed token lists, and the CLI yet another flag spelling.
:class:`LaunchSpec` collapses all of that: it names *what* to run (the
argument source and instance count) and *how* (thread limit, step cap,
timing collection), and is accepted uniformly by

* :meth:`repro.host.loader.Loader.run_ensemble`, the host's one launch
  sequence, and :meth:`~repro.host.loader.Loader.run`, that sequence at
  one instance (which also takes a bare argv tail, meaning
  ``LaunchSpec([argv])``),
* :meth:`repro.sched.Scheduler.submit`,
* :func:`repro.frontend.autoensemble.auto_launch` and its backends, as a
  template whose instances each call fills in.

None of them restates a run option as a keyword parameter.

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
from repro.runtime.backend import (
    DEFAULT_BACKEND,
    DEFAULT_MAX_STEPS,
    DEFAULT_SAFETY_MODE,
    SAFETY_MODES,
    available_backends,
)

#: Anything :func:`~repro.host.argfile.resolve_arg_source` understands.
ArgSource = Union[str, Path, Sequence[Sequence[str]]]


@dataclass(frozen=True)
class LaunchSpec:
    """Everything needed to launch an ensemble, in one value.

    ``arg_source`` is an argument file path, raw argument-file text, or an
    already-parsed list of per-instance token lists (§3.2's ``-f``).  It
    defaults to no instances, which makes ``LaunchSpec(thread_limit=...)``
    a template of run options for the entry points that fill in the
    instances themselves (the auto-ensemble frontend).
    ``num_instances`` is the paper's ``-n``: ``None`` runs every line, a
    smaller count runs a prefix, a larger count is an error.
    ``thread_limit`` is ``-t``; ``max_steps`` bounds interpreter steps per
    launch; ``collect_timing`` toggles the timing model.

    This is the one place run options are declared, defaulted and
    validated: construction raises :class:`~repro.errors.LoaderError` for
    a value no launch could accept, so a typo fails before any device
    work instead of surfacing later as a device fault.
    """

    arg_source: ArgSource = ()
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
    #: executes the spec arms it — the scheduler across its pool, a
    #: loader on its device.  ``None`` means ``NO_FAULTS``.
    fault_plan: FaultPlan | str | None = None
    #: Guard policy for certificate-aware backends, one of
    #: :data:`~repro.runtime.backend.SAFETY_MODES`: ``"unchecked"`` (the
    #: default — sites the :mod:`~repro.analysis.safety` certificate
    #: proves safe run guard-free), ``"checked"`` (dynamic guards
    #: everywhere; the ``--no-unchecked`` escape hatch), or ``"assert"``
    #: (guards stay armed and report certificate violations).
    safety_mode: str = DEFAULT_SAFETY_MODE

    def __post_init__(self) -> None:
        if self.num_instances is not None and self.num_instances < 1:
            raise LoaderError("-n must request at least one instance")
        if self.thread_limit < 1:
            raise LoaderError(
                f"thread_limit must be >= 1, got {self.thread_limit}"
            )
        if self.max_steps < 1:
            raise LoaderError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.backend not in available_backends():
            raise LoaderError(
                f"unknown backend {self.backend!r}; available: "
                f"{', '.join(available_backends())}"
            )
        if self.safety_mode not in SAFETY_MODES:
            raise LoaderError(
                f"unknown safety_mode {self.safety_mode!r}; expected one of "
                f"{', '.join(SAFETY_MODES)}"
            )

    def resolve_instances(self) -> list[list[str]]:
        """Resolve ``arg_source`` and apply the ``-n`` prefix rule."""
        instances = resolve_arg_source(self.arg_source)
        n = self.num_instances
        if n is None:
            return instances
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

        def option(name, types):  # absent: the dataclass default
            return wire.get_field(data, name, types, getattr(cls, name), kind=kind)

        try:
            return cls(
                arg_source=instances,
                thread_limit=option("thread_limit", int),
                max_steps=option("max_steps", int),
                collect_timing=option("collect_timing", bool),
                backend=option("backend", str),
                fault_plan=None
                if plan_data is None
                else FaultPlan.from_wire(plan_data),
                safety_mode=option("safety_mode", str),
            )
        except LoaderError as exc:
            raise wire.WireError(
                f"{kind}: {exc}", code=wire.E_BAD_REQUEST
            ) from exc


__all__ = ["ArgSource", "LaunchSpec"]
