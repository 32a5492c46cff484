"""Figure-2 path: legacy source -> wrappers -> LTO -> executable -> GPU -> RPC.

One test walks the full compilation/execution pipeline stage by stage and
checks the artifact contract at each step, mirroring the toolchain diagram.
"""

import pytest

from repro.frontend import Program, dgpu, i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.ensemble_loader import EnsembleLoader
from repro.ir.instructions import Opcode
from repro.passes import compile_for_device, finalize_executable
from repro.runtime.kernel import ENSEMBLE_KERNEL, build_ensemble_kernel
from repro.host.launch import LaunchSpec
from tests.util import SMALL_DEVICE


def legacy_app():
    prog = Program("legacy")

    @prog.device
    def work(x: i64) -> i64:
        return x * x + 1

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:
        n = atoi(argv[1])  # noqa: F821
        acc = malloc_i64(1)  # noqa: F821
        acc[0] = 0
        for i in dgpu.parallel_range(n):
            dgpu.atomic_add(acc, work(i))
        printf("result %ld\n", acc[0])  # noqa: F821
        return acc[0]

    return prog


def test_stagewise_pipeline_contracts():
    prog = legacy_app()

    # stage 1: frontend compile + libc link
    module = prog.compile()
    assert "main" in module.functions
    assert "strlen" in module.functions  # partial libc linked
    assert "printf" in module.extern_host

    # stage 2: device front half (wrapper-header semantics)
    module = compile_for_device(module)
    assert "__user_main" in module.functions
    assert all(f.declare_target for f in module.functions.values())
    # printf call already rewritten to RPC
    user_main = module.functions["__user_main"]
    assert any(i.op is Opcode.RPC for i in user_main.iter_instrs())

    # stage 3: the loader's entry kernel (the ensemble wrapper)
    build_ensemble_kernel(module)
    assert [k.name for k in module.kernels()] == [ENSEMBLE_KERNEL]

    # stage 4: LTO finalization -> call-free executable
    module = finalize_executable(module)
    for kernel in module.kernels():
        assert kernel.called_symbols() == set()

    # stage 5: execution with host RPC servicing printf
    device = GPUDevice(SMALL_DEVICE)
    loader = EnsembleLoader(prog, device, heap_bytes=1 << 20)
    res = loader.run_ensemble(LaunchSpec([["10"]], thread_limit=32, collect_timing=False))
    expect = sum(i * i + 1 for i in range(10))
    assert res.return_codes == [expect]
    assert res.instances[0].stdout == f"result {expect}\n"


def test_rpc_counts_scale_with_instances():
    device = GPUDevice(SMALL_DEVICE)
    loader = EnsembleLoader(legacy_app(), device, heap_bytes=1 << 20)
    res = loader.run_ensemble(LaunchSpec(
        [["3"], ["3"], ["3"]], thread_limit=32, collect_timing=False
    ))
    # each instance printed once
    assert [bool(inst.stdout) for inst in res.instances] == [True] * 3


def test_optimization_reduces_instruction_count():
    prog = legacy_app()
    m1 = compile_for_device(prog.compile())
    build_ensemble_kernel(m1)
    unopt = finalize_executable(m1, opt_level=0)
    size_unopt = unopt.functions[ENSEMBLE_KERNEL].instruction_count()

    prog2 = legacy_app()
    m2 = compile_for_device(prog2.compile())
    build_ensemble_kernel(m2)
    opt = finalize_executable(m2, opt_level=1)
    size_opt = opt.functions[ENSEMBLE_KERNEL].instruction_count()
    assert size_opt < size_unopt
