"""The simulated GPU device: image loading and kernel launching.

:class:`GPUDevice` owns the global-memory arena and its allocator, loads
finalized IR modules into :class:`DeviceImage` objects (globals materialized
at device addresses), and launches kernels block-by-block through the SIMT
interpreter, collecting the per-block traces the timing model consumes.

Launch-scoped resources (per-lane stacks, team-local copies of relocated
globals) are allocated before and freed after every launch, so a harness can
run hundreds of launches against one device without leaking the arena.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from repro.analysis.safety import SAFETY_META, Verdict, certificates_for
from repro.config import DEFAULT_DEVICE, DEFAULT_SIM, DeviceConfig, SimConfig
from repro.errors import DeviceError, DeviceTrap, LaunchError
from repro.faults.injector import NO_FAULTS, InjectedOOM, InstanceFault
from repro.gpu.allocator import DeviceAllocator
from repro.gpu.launch import config_1d
from repro.gpu.memory import GlobalMemory
from repro.gpu.timing import BlockTrace, KernelTiming, TimingModel
from repro.ir.module import Module
from repro.obs.tracer import CLOCK_CYCLES, CLOCK_STEPS, NULL_TRACER
from repro.runtime.backend import (
    DEFAULT_BACKEND,
    DEFAULT_MAX_STEPS,
    DEFAULT_SAFETY_MODE,
    SAFETY_MODES,
    Backend,
    get_backend,
)
from repro.runtime.compiled import SAFETY_CERT_KEY
from repro.runtime.interpreter import BlockContext
from repro.runtime.machine import LoweredKernel, lower_kernel
from repro.runtime.trace import TraceCollector

#: Per-team trace tracks recorded per launch; beyond this the launch span
#: notes ``teams_truncated`` instead of flooding the trace with tracks.
TRACE_TEAM_LIMIT = 64

#: Occupancy-model register estimate per thread (post-regalloc estimate; the
#: virtual-register count of our unallocated IR is not meaningful hardware
#: pressure, so a fixed realistic figure is used).
HW_REGS_PER_THREAD = 32


#: Executor counters published per launch as ``exec.<name>`` by engines
#: that keep them (compiled): row-path block and region calls, then the
#: scalar tier's (docs/backends.md).
_DISPATCH_COUNTERS = (
    "block_dispatches",
    "region_entries",
    "scalar_dispatches",
    "scalar_region_entries",
)

#: Serializes first-launch lowering, which may fill a dict shared by
#: devices on several threads.
_LOWER_LOCK = threading.Lock()


@dataclass
class DeviceImage:
    """A module loaded onto the device."""

    module: Module
    base: int
    size: int
    symbols: dict[str, int]
    template: bytes = b""
    team_local_offsets: dict[str, int] = field(default_factory=dict)
    team_local_size: int = 0
    team_local_template: bytes = b""
    lowered: dict[str, LoweredKernel] = field(default_factory=dict)

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise DeviceError(f"image has no symbol {name!r}") from None


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    kernel: str
    num_teams: int
    thread_limit: int
    instances_per_team: int
    cycles: float | None
    timing: KernelTiming | None
    interpreter_steps: int
    #: Name of the execution engine that ran this launch.
    backend: str = DEFAULT_BACKEND
    traces: list[BlockTrace] = field(default_factory=list)
    #: teams whose instances were fault-isolated mid-launch (injected
    #: per-instance faults, e.g. an RPC timeout): team id -> the fault.
    #: Every other team's results are valid; the ensemble loader maps the
    #: faulted teams back to instance slots.
    team_faults: dict[int, Exception] = field(default_factory=dict)

    @property
    def summary(self) -> dict:
        out = {
            "kernel": self.kernel,
            "teams": self.num_teams,
            "thread_limit": self.thread_limit,
            "steps": self.interpreter_steps,
        }
        if self.timing is not None:
            out.update(self.timing.summary())
        return out


#: Process-wide ordinal source for default device labels (``cuda:K``-style
#: identity, so multi-device stats can name devices without the caller
#: inventing labels).
_next_ordinal = count()


class GPUDevice:
    """A simulated GPU with an A100-like default configuration."""

    def __init__(
        self,
        config: DeviceConfig = DEFAULT_DEVICE,
        sim: SimConfig = DEFAULT_SIM,
        *,
        label: str | None = None,
    ):
        config.validate()
        self.config = config
        self.sim = sim
        self.ordinal = next(_next_ordinal)
        self.label = label if label is not None else f"gpu{self.ordinal}"
        self.memory = GlobalMemory(config.global_mem_bytes)
        self.allocator = DeviceAllocator(self.memory.capacity)
        self.timing_model = TimingModel(config, sim)
        #: Observability hooks: a tracer (null by default — zero overhead)
        #: and an optional MetricsRegistry launches publish into.  Set by
        #: :meth:`repro.sched.pool.DevicePool.attach_obs` or directly.
        self.tracer = NULL_TRACER
        self.metrics = None
        #: Fault injection hook, same null-object pattern as the tracer:
        #: :data:`~repro.faults.NO_FAULTS` unless a chaos plan is attached
        #: (by :meth:`repro.sched.pool.DevicePool.attach_faults`, a
        #: ``LaunchSpec.fault_plan``, or directly).
        self.faults = NO_FAULTS
        #: Per-domain simulated clocks: cumulative cycles of timed launches
        #: and interpreter steps of untimed ones.  Launch spans are placed
        #: on these clocks, so a device's trace track is monotonic.
        self.cycle_clock = 0.0
        self.step_clock = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<GPUDevice {self.label!r} ordinal={self.ordinal} "
            f"mem={self.config.global_mem_bytes}>"
        )

    # ------------------------------------------------------------------
    # memory facade
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int) -> int:
        return self.allocator.alloc(nbytes)

    def free(self, addr: int) -> None:
        self.allocator.free(addr)

    def memcpy_h2d(self, addr: int, data) -> None:
        if isinstance(data, (bytes, bytearray)):
            self.memory.write_bytes(addr, bytes(data))
        else:
            self.memory.write_array(addr, np.ascontiguousarray(data))

    def memcpy_d2h(self, addr: int, dtype, count: int) -> np.ndarray:
        return self.memory.read_array(addr, dtype, count)

    # ------------------------------------------------------------------
    # image loading
    # ------------------------------------------------------------------
    def load_image(self, module: Module) -> DeviceImage:
        """Materialize a finalized module's globals in device memory."""
        regular: list[tuple[str, bytes]] = []
        team_local: list[tuple[str, bytes]] = []
        for g in module.globals.values():
            bucket = team_local if g.team_local else regular
            bucket.append((g.name, g.initial_bytes()))

        def layout(items: list[tuple[str, bytes]]) -> tuple[dict[str, int], bytes]:
            offsets: dict[str, int] = {}
            blob = bytearray()
            for name, raw in items:
                if len(blob) % 8:
                    blob.extend(b"\x00" * (8 - len(blob) % 8))
                offsets[name] = len(blob)
                blob.extend(raw)
            return offsets, bytes(blob)

        reg_off, reg_blob = layout(regular)
        tl_off, tl_blob = layout(team_local)

        base = self.alloc(max(8, len(reg_blob)))
        if reg_blob:
            self.memory.write_bytes(base, reg_blob)
        symbols = {name: base + off for name, off in reg_off.items()}
        from repro.compilecache.build import is_executable

        # An executable is read-only once built, and a lowered kernel
        # resolves globals through its launch context, so neither it nor
        # the compiled programs cached on it depend on the image: every
        # image of an executable shares ``module.lowered``.  Other modules
        # (hand-built kernels that may be edited between loads) lower
        # once per image.
        lowered = module.lowered if is_executable(module) else {}
        return DeviceImage(
            module=module,
            base=base,
            size=len(reg_blob),
            symbols=symbols,
            template=reg_blob,
            team_local_offsets=tl_off,
            team_local_size=len(tl_blob),
            team_local_template=tl_blob,
            lowered=lowered,
        )

    def reset_image(self, image: DeviceImage) -> None:
        """Restore every global to its initial value (fresh-process
        semantics between launches: an application run must not observe
        the previous run's global state)."""
        if image.template:
            self.memory.write_bytes(image.base, image.template)

    def unload_image(self, image: DeviceImage) -> None:
        self.free(image.base)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _publish_launch(
        self,
        kernel_name: str,
        num_teams: int,
        cycles: float | None,
        timing,
        total_steps: int,
    ) -> None:
        """Advance the device's simulated clock and emit the launch's
        span/counters into the attached tracer and metrics registry.

        Timed launches land on the cycle clock (one span on the device
        track, one per team from the timing model's block times); untimed
        launches land on the interpreter-step clock on a separate track,
        because cycles and steps are incomparable domains.
        """
        if self.metrics is not None:
            self.metrics.counter("device.launches", device=self.label).inc()
            self.metrics.counter("interp.steps", device=self.label).inc(
                total_steps
            )
            if cycles is not None:
                self.metrics.counter("device.cycles", device=self.label).inc(
                    cycles
                )

        if cycles is None:
            elapsed, clock = float(total_steps), CLOCK_STEPS
            track = f"device:{self.label} (steps)"
            start = self.step_clock
            self.step_clock += elapsed
        else:
            elapsed, clock = cycles, CLOCK_CYCLES
            track = f"device:{self.label}"
            start = self.cycle_clock
            self.cycle_clock += elapsed

        if not self.tracer.enabled:
            return
        args = {
            "kernel": kernel_name,
            "teams": num_teams,
            "interpreter_steps": total_steps,
        }
        if timing is not None and num_teams > TRACE_TEAM_LIMIT:
            args["teams_truncated"] = num_teams - TRACE_TEAM_LIMIT
        self.tracer.complete(
            f"launch {kernel_name}",
            track=track,
            start=start,
            end=start + elapsed,
            clock=clock,
            cat="launch",
            args=args,
        )
        if timing is not None:
            for team, block_time in enumerate(
                timing.block_times[:TRACE_TEAM_LIMIT]
            ):
                self.tracer.complete(
                    f"team {team}",
                    track=f"{self.label}/team{team}",
                    start=start,
                    end=start + min(block_time, elapsed),
                    clock=CLOCK_CYCLES,
                    cat="team",
                    args={"kernel": kernel_name},
                )

    # ------------------------------------------------------------------
    # launching
    # ------------------------------------------------------------------
    def _lower(self, image: DeviceImage, kernel_name: str) -> LoweredKernel:
        fn = image.module.get_function(kernel_name)
        kern = lower_kernel(fn, tracer=self.tracer, metrics=self.metrics)
        # Attach the safety certificate of a stamped module, validated
        # (and re-derived when stale) through ``certificates_for``, so
        # certificate-aware backends can elide guards.  An unstamped
        # module runs with every guard armed.
        if SAFETY_META in image.module.metadata:
            cert = certificates_for(image.module).get(kernel_name)
            if cert is not None:
                kern.backend_cache[SAFETY_CERT_KEY] = cert
        return kern

    def launch(
        self,
        image: DeviceImage,
        kernel_name: str,
        *,
        num_teams: int,
        thread_limit: int,
        params: tuple = (),
        instances_per_team: int = 1,
        stack_bytes: int = 1024,
        rpc=None,
        collect_timing: bool = True,
        max_steps: int = DEFAULT_MAX_STEPS,
        backend: "str | Backend" = DEFAULT_BACKEND,
        safety_mode: str = DEFAULT_SAFETY_MODE,
    ) -> LaunchResult:
        engine = get_backend(backend)
        cfg = config_1d(num_teams, thread_limit, instances_per_team)
        cfg.validate(self.config)
        if num_teams > self.config.num_sms * self.config.max_blocks_per_sm:
            raise LaunchError(f"{num_teams} teams exceed device block capacity")
        if safety_mode not in SAFETY_MODES:
            raise LaunchError(
                f"unknown safety_mode {safety_mode!r}; expected one of "
                f"{SAFETY_MODES}"
            )
        # Per-lane stack bases are stack_base + lane * stack_bytes; the
        # safety analyzer proves 8-byte alignment for SALLOC-derived
        # pointers, so the stride must preserve the arena's alignment.
        stack_bytes = (stack_bytes + 7) & ~7

        if self.faults.enabled:
            # The ``device.alloc`` point models the launch-scoped allocation
            # (stacks, team-locals) failing; fired before anything is
            # allocated so a rejected launch leaks nothing.
            fault = self.faults.fire("device.alloc", device=self.label)
            if fault is not None:
                raise InjectedOOM(fault, device=self.label)

        kern = image.lowered.get(kernel_name)
        if kern is None:
            with _LOWER_LOCK:
                kern = image.lowered.get(kernel_name)
                if kern is None:
                    kern = self._lower(image, kernel_name)
                    image.lowered[kernel_name] = kern

        if self.metrics is not None:
            cert = kern.backend_cache.get(SAFETY_CERT_KEY)
            self.metrics.counter(
                "safety.launches",
                device=self.label,
                mode=safety_mode,
                certified=str(cert is not None).lower(),
            ).inc()
            if cert is not None and safety_mode == "unchecked":
                elided = kept = 0
                for proof in cert.sites.values():
                    if proof.verdict is Verdict.PROVEN:
                        elided += 1
                    else:
                        kept += 1
                self.metrics.counter(
                    "safety.guards.elided", device=self.label
                ).inc(elided)
                self.metrics.counter(
                    "safety.guards.kept", device=self.label
                ).inc(kept)

        warp = self.config.warp_size
        lanes = -(-thread_limit // warp) * warp  # padded per team

        # --- launch-scoped allocations ---------------------------------
        stacks_addr = None
        if stack_bytes > 0:
            stacks_addr = self.alloc(num_teams * lanes * stack_bytes)
        tl_addr = None
        tl_stride = 0
        if image.team_local_size > 0:
            tl_stride = (image.team_local_size + 255) & ~255
            tl_addr = self.alloc(num_teams * tl_stride)
            for team in range(num_teams):
                self.memory.write_bytes(
                    tl_addr + team * tl_stride, image.team_local_template
                )

        def make_resolver(team: int):
            def resolve(sym: str) -> int:
                addr = image.symbols.get(sym)
                if addr is not None:
                    return addr
                off = image.team_local_offsets.get(sym)
                if off is not None:
                    if tl_addr is None:
                        raise DeviceError(
                            f"team-local global {sym!r} without a team-local region"
                        )
                    return tl_addr + team * tl_stride + off
                raise DeviceTrap(f"undefined global symbol {sym!r}", team=team)

            return resolve

        traces: list[BlockTrace] = []
        team_faults: dict[int, Exception] = {}
        total_steps = 0
        # (block, region) calls of engines that count them: compiled
        dispatch = None
        try:
            for team in range(num_teams):
                shared_range = None
                if tl_addr is not None:
                    base = tl_addr + team * tl_stride
                    shared_range = (base, base + image.team_local_size)
                collector = None
                if collect_timing:
                    collector = TraceCollector(
                        team,
                        lanes // warp,
                        model_coalescing=self.sim.model_coalescing,
                        shared_range=shared_range,
                    )
                ctx = BlockContext(
                    memory=self.memory,
                    resolve=make_resolver(team),
                    params=params,
                    team_id=team,
                    num_teams=num_teams,
                    instances_per_team=instances_per_team,
                    threads_per_instance=thread_limit // instances_per_team,
                    stack_base=stacks_addr if stacks_addr is not None else 0,
                    stack_bytes=stack_bytes,
                    rpc=rpc,
                    warp_size=warp,
                    max_steps=max_steps,
                    collector=collector,
                    safety_mode=safety_mode,
                    shared_range=shared_range,
                    tracer=self.tracer,
                )
                executor = engine.executor(kern, ctx)
                try:
                    executor.run()
                except InstanceFault as fault:
                    # Per-instance degradation: only this team's instances
                    # are lost; every other team keeps running.
                    if fault.team is None:
                        fault.team = team
                    team_faults[team] = fault
                total_steps += executor.steps
                if self.metrics is not None and hasattr(
                    executor, "region_entries"
                ):
                    dispatch = tuple(
                        total + getattr(executor, name)
                        for total, name in zip(
                            dispatch or (0,) * len(_DISPATCH_COUNTERS),
                            _DISPATCH_COUNTERS,
                        )
                    )
                if collector is not None:
                    traces.append(collector.finalize())
        finally:
            if stacks_addr is not None:
                self.free(stacks_addr)
            if tl_addr is not None:
                self.free(tl_addr)

        timing = None
        cycles = None
        if collect_timing:
            timing = self.timing_model.kernel_time(
                traces,
                threads_per_block=thread_limit,
                regs_per_thread=HW_REGS_PER_THREAD,
                shared_mem_per_block=image.team_local_size,
            )
            cycles = timing.cycles
            if self.faults.enabled and self.faults.watches("device.launch"):
                cycles = self._inject_team_stalls(timing, num_teams)
        if dispatch is not None:
            for name, value in zip(_DISPATCH_COUNTERS, dispatch):
                self.metrics.counter(
                    f"exec.{name}", device=self.label, backend=engine.name
                ).inc(value)
        self._publish_launch(kernel_name, num_teams, cycles, timing, total_steps)
        return LaunchResult(
            kernel=kernel_name,
            num_teams=num_teams,
            thread_limit=thread_limit,
            instances_per_team=instances_per_team,
            cycles=cycles,
            timing=timing,
            interpreter_steps=total_steps,
            backend=engine.name,
            traces=traces,
            team_faults=team_faults,
        )

    def _inject_team_stalls(self, timing: KernelTiming, num_teams: int) -> float:
        """Apply ``slow_team`` faults: inflate the matching teams' block
        times by the spec's factor and stretch the kernel makespan by the
        added critical-path time."""
        for team in range(num_teams):
            fault = self.faults.fire(
                "device.launch", device=self.label, team=team
            )
            if fault is None or team >= len(timing.block_times):
                continue
            delta = timing.block_times[team] * (fault.factor - 1.0)
            timing.block_times[team] += delta
            if timing.block_times[team] > timing.makespan:
                grow = timing.block_times[team] - timing.makespan
                timing.makespan += grow
                timing.cycles += grow
        return timing.cycles
