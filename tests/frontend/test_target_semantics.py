"""Figure-1 semantics: the implicit kernel and target-region behaviour.

The paper's Figure 1 contrasts explicit CUDA kernels with OpenMP target
regions where "an OpenMP compiler will outline the target region and
generate a kernel implicitly".  Our equivalent: registering ``main`` makes
the loader generate the wrapper kernels; user code never names a kernel.
These tests pin that contract plus the single-initial-thread semantics of
a target region (§2.3).
"""

import numpy as np

from repro.frontend import Program, dgpu, i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from repro.runtime.kernel import ENSEMBLE_KERNEL, SINGLE_KERNEL
from tests.oracle import ORACLE, Config, Input, check
from tests.util import SMALL_DEVICE


def make_program():
    prog = Program("semantics")

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:
        marks = malloc_i64(64)  # noqa: F821
        i = 0
        while i < 64:
            marks[i] = 0
            i += 1
        # sequential region: executed once (initial thread only)
        marks[0] = marks[0] + 1
        # parallel region: executed by the team
        for t in dgpu.parallel_range(32):
            marks[t] = marks[t] + 10
        total = 0
        i = 0
        while i < 64:
            total += marks[i]
            i += 1
        return total

    return prog


def make_loader():
    return EnsembleLoader(
        make_program(), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20
    )


def test_kernels_generated_implicitly():
    loader = make_loader()
    assert SINGLE_KERNEL in loader.module.functions
    assert ENSEMBLE_KERNEL in loader.module.functions
    assert loader.module.functions[SINGLE_KERNEL].is_kernel
    # and the user's main is no longer `main`
    assert "main" not in loader.module.functions
    assert "__user_main" in loader.module.functions


def test_initial_thread_runs_sequential_code_once():
    loader = make_loader()
    res = loader.run(LaunchSpec([[]], thread_limit=32, collect_timing=False))
    # 1 sequential increment + 32 parallel increments of 10
    assert res.exit_code == 1 + 320


def test_target_semantics_identical_across_team_sizes():
    """OpenMP semantics: program results must not depend on the thread
    limit (worksharing just partitions differently)."""
    wide = [Config(thread_limit=1024), Config("compiled", thread_limit=1024)]
    runs = check(Input(make_program()), wide)
    assert runs[ORACLE].obs.instances[0][2] == 321  # exit code


def test_declare_target_flags_set():
    loader = make_loader()
    user_main = loader.module.functions["__user_main"]
    assert user_main.declare_target
    assert user_main.nohost
