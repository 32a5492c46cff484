"""Base loader: the "main wrapper" host entry point of the original direct
GPU compilation framework [26].

Responsibilities (§2.2 of the paper):

* compile + link the user program as device code (declare-target marking,
  ``main`` -> ``__user_main`` renaming, RPC lowering, kernel construction,
  LTO-style finalization),
* load the image onto the device and install the device heap,
* map the program arguments into device memory (``argc``/``argv`` with
  C-style NUL-terminated strings and a NULL-terminated pointer array),
* launch the wrapper kernel and collect the exit code and host-RPC output.

:class:`~repro.host.ensemble_loader.EnsembleLoader` builds on the same
machinery for multi-instance execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.safety import certificates_for
from repro.compilecache.build import (
    DIGEST_META,
    build_executable,
    is_executable,
)
from repro.config import DEFAULT_DEVICE, DEFAULT_SIM
from repro.errors import DeviceOutOfMemory, DeviceTrap, LoaderError
from repro.faults.injector import FaultInjector
from repro.frontend.dsl import Program
from repro.gpu.device import DeviceImage, GPUDevice, LaunchResult
from repro.gpu.timing import KernelTiming
from repro.host.launch import LaunchSpec
from repro.host.rpc_host import RPCHost
from repro.ir.module import Module
from repro.runtime.kernel import ENSEMBLE_KERNEL, SINGLE_KERNEL
from repro.runtime.libc import HEAP_CURSOR, HEAP_END
from repro.runtime.teams import TeamGeometry


@dataclass
class RunResult:
    """Outcome of a single-instance run."""

    exit_code: int
    stdout: str
    cycles: float | None
    timing: KernelTiming | None
    launch: LaunchResult


@dataclass
class _ArgBlock:
    base: int
    argc_addr: int
    argv_addr: int
    ret_addr: int
    num_instances: int


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class Loader:
    """Loads one application onto one simulated device."""

    def __init__(
        self,
        program: Program | Module,
        device: GPUDevice | None = None,
        *,
        heap_bytes: int = 32 * 1024 * 1024,
        stack_bytes: int = 2048,
        team_local_globals: bool = False,
        opt_level: int = 1,
        rpc_transport: str = "direct",
        allow_unsafe: bool = False,
        cache=None,
    ):
        if rpc_transport not in ("direct", "ring"):
            raise LoaderError(f"unknown rpc_transport {rpc_transport!r}")
        if not _is_int(heap_bytes) or heap_bytes < 1:
            raise LoaderError(
                f"heap_bytes must be a positive int, got {heap_bytes!r}"
            )
        if not _is_int(stack_bytes) or stack_bytes < 0:
            raise LoaderError(
                f"stack_bytes must be a non-negative int, got {stack_bytes!r}"
            )
        self.device = device if device is not None else GPUDevice(DEFAULT_DEVICE, DEFAULT_SIM)
        self.heap_bytes = heap_bytes
        self.stack_bytes = stack_bytes
        self.rpc_transport = rpc_transport
        self.app_name = program.name if isinstance(program, (Program, Module)) else "app"

        obs_kw = dict(tracer=self.device.tracer, metrics=self.device.metrics)
        self._static_footprint = None
        self._cache_entry = None
        if is_executable(program):
            # Already finalized (by the compile cache or a prior loader):
            # its compile options were baked in by the producer, so go
            # straight to image loading.  Recover the stored footprint
            # without counting a hit — the lookup already happened.
            module = program
            if cache is not None:
                digest = module.metadata.get(DIGEST_META)
                entry = cache.peek(digest) if digest else None
                if entry is not None:
                    self._cache_entry = entry
        elif cache is not None:
            entry = cache.get_or_build(
                program,
                team_local_globals=team_local_globals,
                shared_mem_budget=(
                    self.device.config.shared_mem_per_block
                    if team_local_globals
                    else None
                ),
                opt_level=opt_level,
                **obs_kw,
            )
            module = entry.module
            self._cache_entry = entry
        else:
            module = program.compile() if isinstance(program, Program) else program
            module = build_executable(
                module,
                team_local_globals=team_local_globals,
                shared_mem_budget=self.device.config.shared_mem_per_block,
                opt_level=opt_level,
                **obs_kw,
            )
        self.module = module
        self.allow_unsafe = allow_unsafe
        #: kernel name -> statically-disproven sites (the safety analyzer
        #: proved the site faults on every execution).  Computed once per
        #: loader from the stamped certificates; enforced at launch time.
        self.safety_disproven = {
            name: cert.disproven()
            for name, cert in certificates_for(module).items()
            if cert.disproven()
        }
        self.image: DeviceImage = self.device.load_image(module)
        self.heap_addr = self.device.alloc(heap_bytes)
        #: the injector this loader armed from a spec's fault plan, if any;
        #: lets the next direct launch re-arm a fresh plan without
        #: clobbering an injector a scheduler attached for its campaign.
        self._spec_adopted_faults = None

    @property
    def static_footprint(self):
        """Lazily computed :class:`~repro.analysis.footprint.StaticFootprint`
        of the linked module's ``__user_main`` — the per-instance heap
        bound the scheduler's static packing consumes."""
        if self._static_footprint is None:
            if self._cache_entry is not None:
                # One lazy derivation per cache *entry*, shared by every
                # loader of the same executable — not one per loader.
                self._static_footprint = self._cache_entry.footprint
            if self._static_footprint is None:
                from repro.analysis.footprint import compute_footprint

                self._static_footprint = compute_footprint(self.module)
        return self._static_footprint

    # ------------------------------------------------------------------
    # plumbing shared with the ensemble loader
    # ------------------------------------------------------------------
    def _make_rpc_host(self) -> RPCHost:
        """An RPC endpoint wired to the device's observability sinks.

        The fault hook is only handed over for the direct transport; in
        ring mode the :class:`~repro.host.transport.RingTransport` consults
        the injector at its device-side endpoint, so wiring the host too
        would fire each RPC's faults twice.
        """
        faults = self.device.faults if self.rpc_transport == "direct" else None
        return RPCHost(
            self.device.memory,
            tracer=self.device.tracer,
            metrics=self.device.metrics,
            faults=faults,
        )

    def _reset_for_run(self) -> None:
        """Fresh-process semantics: re-init globals and the device heap."""
        self.device.reset_image(self.image)
        if HEAP_CURSOR in self.image.symbols:  # absent when libc is unlinked
            mem = self.device.memory
            mem.write_i64(self.image.symbol(HEAP_CURSOR), self.heap_addr)
            mem.write_i64(
                self.image.symbol(HEAP_END), self.heap_addr + self.heap_bytes
            )

    def _marshal_instances(self, instances: list[list[str]]) -> _ArgBlock:
        """Place argc/argv for every instance into one device allocation.

        Layout: ``Argc[NI] | ArgvPtr[NI] | Ret[NI] | per-instance char*
        arrays (NULL-terminated) | string bytes``.
        """
        ni = len(instances)
        if ni == 0:
            raise LoaderError("no instances to marshal")
        header = 3 * ni * 8
        ptr_arrays_off = header
        ptr_arrays_len = sum((len(argv) + 1) * 8 for argv in instances)
        strings_off = ptr_arrays_off + ptr_arrays_len
        encoded = [[a.encode() + b"\x00" for a in argv] for argv in instances]
        strings_len = sum(len(s) for argv in encoded for s in argv)
        total = strings_off + strings_len

        base = self.device.alloc(max(total, 8))
        argc_arr = np.array([len(argv) for argv in instances], dtype=np.int64)
        argvptr_arr = np.zeros(ni, dtype=np.int64)

        # string placement
        str_cursor = base + strings_off
        ptr_cursor = base + ptr_arrays_off
        blob = bytearray(total)
        for i, argv in enumerate(encoded):
            argvptr_arr[i] = ptr_cursor
            ptrs = np.zeros(len(argv) + 1, dtype=np.int64)
            for j, s in enumerate(argv):
                ptrs[j] = str_cursor
                off = str_cursor - base
                blob[off : off + len(s)] = s
                str_cursor += len(s)
            off = ptr_cursor - base
            blob[off : off + ptrs.nbytes] = ptrs.tobytes()
            ptr_cursor += ptrs.nbytes

        blob[0 : ni * 8] = argc_arr.tobytes()
        blob[ni * 8 : 2 * ni * 8] = argvptr_arr.tobytes()
        # Ret[NI] stays zero
        self.device.memory.write_bytes(base, bytes(blob))
        return _ArgBlock(
            base=base,
            argc_addr=base,
            argv_addr=base + ni * 8,
            ret_addr=base + 2 * ni * 8,
            num_instances=ni,
        )

    def _check_launch_safety(self) -> None:
        """Refuse to launch code the safety analyzer disproved.

        A DISPROVEN site faults on *every* execution that reaches it —
        launching is never useful unless the caller explicitly wants the
        dynamic guard to produce the trap (``allow_unsafe=True``; the
        guard always stays armed at such sites, in every safety mode).
        """
        if self.allow_unsafe or not self.safety_disproven:
            return
        parts = []
        for name, proofs in sorted(self.safety_disproven.items()):
            first = proofs[0]
            parts.append(
                f"{name}: {len(proofs)} site(s), e.g. {first.kind} at "
                f"pc {first.pc} ({first.witness})"
            )
        raise LoaderError(
            "refusing to launch: static safety analysis disproved "
            + "; ".join(parts)
            + " — fix the flagged code (run the static-oob/static-trap "
            "lint checkers for line-level diagnostics) or construct the "
            "loader with allow_unsafe=True to keep the dynamic guard"
        )

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

    def _launch(
        self,
        kernel: str,
        block: _ArgBlock,
        spec: LaunchSpec,
        geometry: TeamGeometry,
        rpc_host: RPCHost,
    ) -> LaunchResult:
        self._check_launch_safety()
        params: tuple = (
            block.num_instances,
            block.argc_addr,
            block.argv_addr,
            block.ret_addr,
            geometry.total_slots,
        )
        transport = None
        endpoint = rpc_host.handle
        if self.rpc_transport == "ring":
            from repro.host.transport import RingTransport

            transport = RingTransport(self.device, rpc_host)
            endpoint = transport.endpoint()
        try:
            return self.device.launch(
                self.image,
                kernel,
                num_teams=geometry.num_teams,
                thread_limit=geometry.thread_limit,
                params=params,
                instances_per_team=geometry.instances_per_team,
                stack_bytes=self.stack_bytes,
                rpc=endpoint,
                collect_timing=spec.collect_timing,
                max_steps=spec.max_steps,
                backend=spec.backend,
                safety_mode=spec.safety_mode,
            )
        except DeviceTrap as trap:
            if "out of memory" in str(trap):
                raise DeviceOutOfMemory(
                    requested=0,
                    free=0,
                    capacity=self.heap_bytes,
                ) from trap
            raise
        finally:
            if transport is not None:
                transport.close()

    # ------------------------------------------------------------------
    def run(self, spec: LaunchSpec | Sequence[str] | None = None) -> RunResult:
        """Run the application once.

        ``spec`` is a single-instance :class:`~repro.host.launch.LaunchSpec`,
        or a bare argv *tail*, which means ``LaunchSpec([argv])``.
        ``argv[0]`` is the program name, added automatically, exactly like
        the enhanced loader does in Figure 4.
        """
        if not isinstance(spec, LaunchSpec):
            spec = LaunchSpec([list(spec or [])])
        self._adopt_fault_plan(spec)
        lines = spec.resolve_instances()
        if len(lines) != 1:
            raise LoaderError(
                f"Loader.run executes exactly one instance; the spec "
                f"resolves to {len(lines)} (use EnsembleLoader or the "
                "scheduler for ensembles)"
            )
        self._reset_for_run()
        rpc_host = self._make_rpc_host()
        block = self._marshal_instances([[self.app_name] + lines[0]])
        try:
            launch = self._launch(
                SINGLE_KERNEL,
                block,
                spec,
                TeamGeometry(1, spec.thread_limit),
                rpc_host,
            )
            code = int(self.device.memory.read_i64(block.ret_addr))
        finally:
            self.device.free(block.base)
            rpc_host.close()
        return RunResult(
            exit_code=code,
            stdout=rpc_host.all_stdout(),
            cycles=launch.cycles,
            timing=launch.timing,
            launch=launch,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release device resources held by this loader."""
        self.device.free(self.heap_addr)
        self.device.unload_image(self.image)


__all__ = ["Loader", "RunResult", "SINGLE_KERNEL", "ENSEMBLE_KERNEL"]
