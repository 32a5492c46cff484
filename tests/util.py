"""Shared test helpers: build and execute small device programs."""

from __future__ import annotations

from typing import Callable

from repro.config import DEFAULT_SIM, DeviceConfig, SimConfig
from repro.gpu.device import GPUDevice, LaunchResult
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Opcode
from repro.ir.module import Function, Module
from repro.ir.types import ScalarType
from repro.ir.verifier import verify_module

#: Small arena so tests are cheap; plenty for unit workloads.
SMALL_DEVICE = DeviceConfig(global_mem_bytes=64 * 1024 * 1024)


def small_device(sim: SimConfig = DEFAULT_SIM) -> GPUDevice:
    return GPUDevice(SMALL_DEVICE, sim)


def build_kernel_module(
    build: Callable[[IRBuilder, Function, Module], None],
    *,
    name: str = "k",
    globals_setup: Callable[[Module], None] | None = None,
) -> Module:
    """Create a module with one kernel whose body ``build`` emits.

    ``build(b, fn, module)`` gets a builder positioned at the entry block;
    it must leave every block terminated (emit ``b.ret()`` last).
    """
    module = Module(f"test.{name}")
    if globals_setup is not None:
        globals_setup(module)
    fn = Function(name, [], ScalarType.VOID, is_kernel=True)
    b = IRBuilder(fn)
    b.set_block(fn.add_block("entry"))
    build(b, fn, module)
    module.add_function(fn)
    verify_module(module)
    return module


def run_kernel(
    module: Module,
    kernel: str = "k",
    *,
    device: GPUDevice | None = None,
    num_teams: int = 1,
    thread_limit: int = 32,
    params: tuple = (),
    instances_per_team: int = 1,
    stack_bytes: int = 512,
    rpc=None,
    collect_timing: bool = True,
) -> tuple[GPUDevice, LaunchResult]:
    """Load and launch a kernel module; returns (device, result)."""
    dev = device or small_device()
    image = dev.load_image(module)
    result = dev.launch(
        image,
        kernel,
        num_teams=num_teams,
        thread_limit=thread_limit,
        params=params,
        instances_per_team=instances_per_team,
        stack_bytes=stack_bytes,
        rpc=rpc,
        collect_timing=collect_timing,
    )
    return dev, result


def count_barriers(module: Module) -> int:
    """BARRIER instructions across every function of ``module``."""
    return sum(
        1
        for fn in module.functions.values()
        for i in fn.iter_instrs()
        if i.op is Opcode.BARRIER
    )


def trace_fields(trace) -> tuple:
    """Every field of a :class:`~repro.gpu.timing.BlockTrace` as a plain
    tuple (floats in hex, the sector set as raw bytes): two traces give
    equal tuples exactly when they are bitwise identical."""
    us = trace.unique_sectors
    return (
        trace.block_id,
        trace.row_transitions,
        trace.row_hits,
        trace.dynamic_instructions,
        trace.divergent_instructions,
        tuple(
            (
                p.parallel,
                p.active_warps,
                p.mem_warps,
                float(p.issue_cycles_total).hex(),
                float(p.issue_cycles_max_warp).hex(),
                p.sectors,
                p.lane_accesses,
                p.shared_accesses,
            )
            for p in trace.phases
        ),
        us.dtype.str,
        us.tobytes(),
    )
