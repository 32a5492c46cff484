"""Enhanced ensemble loader — the paper's contribution (§3).

Extends the base loader with the three command-line options of §3.2::

    -f <file>   argument file: one line of command-line args per instance
    -n <N>      number of instances launched simultaneously
    -t <T>      per-instance thread limit

Every instance becomes one iteration of a ``target teams distribute`` loop
(Figure 4): ``Ret[I] = __user_main(Argc[I], &Argv[I][0])``.  The default
mapping executes one instance per team (teams == instances, as in the
evaluation); a :class:`~repro.host.mapping.PackedMapping` strategy packs M
instances per team using the ``(N/M, M, 1)`` geometry of §3.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis import Severity, check_races
from repro.errors import EnsembleSafetyError, LoaderError
from repro.faults.injector import FaultInjector
from repro.faults.report import FAULT_EXIT, FaultReport
from repro.frontend.dsl import Program
from repro.gpu.device import GPUDevice, LaunchResult
from repro.gpu.timing import KernelTiming
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from repro.host.results import OutcomeMixin
from repro.host.mapping import MappingStrategy, OneInstancePerTeam
from repro.ir.module import Module
from repro.runtime.kernel import ENSEMBLE_KERNEL
from repro.runtime.teams import TeamGeometry


@dataclass
class InstanceOutcome:
    """Result of one application instance within an ensemble."""

    index: int
    args: list[str]
    exit_code: int
    slot: int
    stdout: str
    #: Set when this instance was isolated by an injected fault instead of
    #: running to completion; ``exit_code`` is then :data:`FAULT_EXIT`.
    fault: FaultReport | None = None

    # -- wire shape (docs/serve.md) -----------------------------------------
    def to_wire(self) -> dict:
        """Versioned wire document (see :mod:`repro.wire`)."""
        from repro import wire

        data = wire.envelope("InstanceOutcome")
        data.update(
            index=self.index,
            args=list(self.args),
            exit_code=self.exit_code,
            slot=self.slot,
            stdout=self.stdout,
            fault=None if self.fault is None else self.fault.to_wire(),
        )
        return data

    @classmethod
    def from_wire(cls, data) -> "InstanceOutcome":
        from repro import wire

        wire.check_envelope(data, "InstanceOutcome")
        kind = "InstanceOutcome"
        fault = wire.get_field(data, "fault", dict, None, kind=kind)
        return cls(
            index=wire.get_field(data, "index", int, kind=kind),
            args=wire.string_list(data, "args", kind=kind),
            exit_code=wire.get_field(data, "exit_code", int, kind=kind),
            slot=wire.get_field(data, "slot", int, -1, kind=kind),
            stdout=wire.get_field(data, "stdout", str, "", kind=kind),
            fault=None if fault is None else FaultReport.from_wire(fault),
        )


@dataclass
class EnsembleResult(OutcomeMixin):
    """Outcome of one ensemble launch.

    Implements the :class:`~repro.host.results.EnsembleOutcome` protocol
    (``return_codes`` / ``all_succeeded`` / ``stdout_of`` come from the
    mixin; ``total_cycles`` aliases this launch's ``cycles``) so report
    code treats it interchangeably with campaign and scheduler results.
    """

    num_instances: int
    thread_limit: int
    geometry: TeamGeometry
    instances: list[InstanceOutcome]
    cycles: float | None
    timing: KernelTiming | None
    launch: LaunchResult = field(repr=False)

    @property
    def total_cycles(self) -> float | None:
        return self.cycles

    @property
    def fault_reports(self) -> list[FaultReport]:
        """Reports of every fault-isolated instance in this launch."""
        return [o.fault for o in self.instances if o.fault is not None]


class EnsembleLoader(Loader):
    """The enhanced loader: ``./user_app_gpu -f args.txt -n N -t T``."""

    def __init__(
        self,
        program: Program | Module,
        device: GPUDevice | None = None,
        *,
        mapping: MappingStrategy = OneInstancePerTeam(),
        heap_bytes: int = 64 * 1024 * 1024,
        stack_bytes: int = 2048,
        team_local_globals: bool = False,
        opt_level: int = 1,
        rpc_transport: str = "direct",
        allow_races: bool = False,
        allow_unsafe: bool = False,
        cache=None,
    ):
        super().__init__(
            program,
            device,
            heap_bytes=heap_bytes,
            stack_bytes=stack_bytes,
            team_local_globals=team_local_globals,
            opt_level=opt_level,
            rpc_transport=rpc_transport,
            allow_unsafe=allow_unsafe,
            cache=cache,
        )
        self.mapping = mapping
        self.allow_races = allow_races
        #: the injector this loader armed from a spec's fault plan, if any;
        #: lets the next direct ``run_ensemble`` re-arm a fresh plan
        #: without clobbering an injector a scheduler attached for its
        #: campaign.
        self._spec_adopted_faults = None
        #: error-severity cross-instance race findings for the linked module;
        #: computed once here, enforced per-launch in :meth:`run_ensemble`.
        self.race_diagnostics = [
            d for d in check_races(self.module) if d.severity >= Severity.ERROR
        ]

    def _check_ensemble_safety(self, num_instances: int) -> None:
        """Refuse multi-instance launches of modules with race errors.

        Single-instance launches are always safe (there is nobody to race
        with); ``allow_races=True`` overrides the gate for callers who know
        the shared state is benign.
        """
        if num_instances <= 1 or self.allow_races or not self.race_diagnostics:
            return
        syms = sorted({d.sym for d in self.race_diagnostics if d.sym})
        names = ", ".join(f"@{s}" for s in syms) or "shared globals"
        raise EnsembleSafetyError(
            f"refusing to launch {num_instances} instances: mutable "
            f"global(s) {names} are written by the program and would be "
            "shared across instances; rerun with team_local_globals=True "
            "(the globals_to_shared pass) or pass allow_races=True "
            "(--allow-races) to override",
            self.race_diagnostics,
        )

    # ------------------------------------------------------------------
    def run_ensemble(self, spec: LaunchSpec) -> EnsembleResult:
        """Launch an ensemble described by a :class:`LaunchSpec`.

        The v1 shape — a raw argument source (path, text, or token lists)
        plus keyword options — was removed in v2.0 and raises
        ``TypeError``.
        """
        if not isinstance(spec, LaunchSpec):
            raise TypeError(
                "run_ensemble() takes a LaunchSpec since v2.0; wrap the "
                "argument source in repro.LaunchSpec(arg_source, "
                "num_instances=..., thread_limit=...)"
            )
        return self._run_spec(spec)

    def _adopt_fault_plan(self, spec: LaunchSpec) -> None:
        """Arm a spec-carried chaos plan on this loader's device.

        A scheduler that already armed an injector for the campaign wins
        over the spec.  A plan the *spec* carries is part of
        that launch's description, so each such launch re-arms a fresh
        injector (schedule counters like ``times=`` start over per run).
        """
        plan = spec.resolve_fault_plan()
        if plan is None:
            return
        current = self.device.faults
        if current.enabled and current is not self._spec_adopted_faults:
            return
        injector = FaultInjector(plan)
        injector.attach_sinks(self.device.tracer, self.device.metrics)
        self.device.faults = injector
        self._spec_adopted_faults = injector

    def _run_spec(self, spec: LaunchSpec) -> EnsembleResult:
        self._adopt_fault_plan(spec)
        instances = spec.resolve_instances()
        num_instances = len(instances)
        if num_instances < 1:
            raise LoaderError("ensemble needs at least one instance")
        thread_limit = spec.thread_limit
        self._check_ensemble_safety(num_instances)
        argvs = [[self.app_name] + line for line in instances]

        geometry = self.mapping.geometry(num_instances, thread_limit)
        self._reset_for_run()
        rpc_host = self._make_rpc_host()
        block = self._marshal_instances(argvs)
        try:
            launch = self._launch(
                ENSEMBLE_KERNEL,
                block,
                num_teams=geometry.num_teams,
                thread_limit=geometry.thread_limit,
                instances_per_team=geometry.instances_per_team,
                total_slots=geometry.total_slots,
                rpc_host=rpc_host,
                collect_timing=spec.collect_timing,
                max_steps=spec.max_steps,
                backend=spec.backend,
                safety_mode=spec.safety_mode,
            )
            codes = self.device.memory.read_array(
                block.ret_addr, np.int64, num_instances
            )
        finally:
            self.device.free(block.base)
            rpc_host.close()

        outcomes = []
        ipt = geometry.instances_per_team
        for i, line in enumerate(instances):
            slot = i % geometry.total_slots
            fault_err = launch.team_faults.get(slot // ipt)
            report = None
            exit_code = int(codes[i])
            if fault_err is not None:
                # The team never wrote Ret[] — a zero there would read as
                # success, so the isolated instance gets a synthetic exit
                # code plus the structured report.
                exit_code = FAULT_EXIT
                report = fault_err.to_report(
                    team=slot // ipt, instances=[i]
                )
                if self.device.metrics is not None:
                    self.device.metrics.counter(
                        "faults.isolated", kind=report.kind
                    ).inc()
            outcomes.append(
                InstanceOutcome(
                    index=i,
                    args=line,
                    exit_code=exit_code,
                    slot=slot,
                    stdout=rpc_host.instance_stdout(slot),
                    fault=report,
                )
            )
        return EnsembleResult(
            num_instances=num_instances,
            thread_limit=thread_limit,
            geometry=geometry,
            instances=outcomes,
            cycles=launch.cycles,
            timing=launch.timing,
            launch=launch,
        )
