"""Warp shuffle intrinsics: __shfl_down / __shfl_idx semantics."""

import numpy as np
import pytest

from repro.frontend import Program, dgpu, i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from tests.util import SMALL_DEVICE


def shuffle_program():
    prog = Program("shuffle")

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:
        mode = atoi(argv[1])  # noqa: F821
        out = malloc_i64(64)  # noqa: F821
        for t in dgpu.parallel_range(64):
            v = t * 10
            if mode == 1:  # shfl_down by 1
                out[t] = dgpu.shfl_down(v, 1)
            elif mode == 2:  # broadcast lane 0 of each warp
                out[t] = dgpu.shfl_idx(v, 0)
            elif mode == 3:  # warp tree-reduction via shfl_down
                acc = v
                d = 16
                while d > 0:
                    acc = acc + dgpu.shfl_down(acc, d)
                    d = d // 2
                out[t] = acc
            else:
                out[t] = v
        total = 0
        i = 0
        while i < 64:
            total += out[i]
            i += 1
        # encode first two lanes + lane 32 for assertions
        return out[0] * 1000000000000 + out[31] * 1000000 + out[32]

    return prog


@pytest.fixture(scope="module")
def loader():
    return Loader(shuffle_program(), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)


def run_mode(loader, mode):
    return loader.run(
        LaunchSpec([[str(mode)]], thread_limit=64, collect_timing=False)
    ).exit_code


def test_shfl_down_shifts_within_warp(loader):
    code = run_mode(loader, 1)
    out0 = code // 10**12  # lane 0 got lane 1's value
    out31 = (code // 10**6) % 10**6  # lane 31: out of warp -> keeps own value
    out32 = code % 10**6  # lane 32 got lane 33's value
    assert out0 == 10
    assert out31 == 310
    assert out32 == 330


def test_shfl_idx_broadcasts_warp_leader(loader):
    code = run_mode(loader, 2)
    out0 = code // 10**12
    out31 = (code // 10**6) % 10**6
    out32 = code % 10**6
    assert out0 == 0  # warp 0's lane 0
    assert out31 == 0
    assert out32 == 320  # warp 1's lane 0 is global lane 32


def test_shfl_tree_reduction(loader):
    code = run_mode(loader, 3)
    lane0 = code // 10**12
    # lane 0 holds the sum of its warp: sum(10*t for t in 0..31)
    assert lane0 == 10 * sum(range(32))


def test_shuffle_of_pointer_rejected():
    from repro.errors import FrontendError

    prog = Program("badshfl", link_libc=False)

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:
        x = dgpu.shfl_down(argv, 1)
        return 0

    with pytest.raises(FrontendError, match="pointer"):
        prog.compile()
