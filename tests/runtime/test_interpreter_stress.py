"""Interpreter stress: divergence patterns that exercise the min-PC
scheduler, reconvergence, barriers-in-loops, and packed-instance mixing."""

import numpy as np
import pytest

from repro.errors import DeviceTrap
from repro.frontend import Program, dgpu, i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.loader import Loader
from repro.host.mapping import PackedMapping
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Opcode
from repro.ir.module import GlobalVar
from repro.ir.types import I64, MemType
from repro.host.launch import LaunchSpec
from tests.util import SMALL_DEVICE, build_kernel_module, small_device


class TestDeepDivergence:
    def test_nested_divergent_branches(self):
        """Four-way divergence through nested ifs must reconverge with every
        lane carrying its own path's value."""

        def build(b, fn, module):
            base = b.gaddr("out")
            b.par_begin()
            tid = b.tid()
            bit0 = b.binop(Opcode.AND, tid, b.const_i(1))
            bit1 = b.binop(Opcode.AND, tid, b.const_i(2))
            res = fn.new_reg(I64)

            b00 = b.create_block("b00")
            b01 = b.create_block("b01")
            b10 = b.create_block("b10")
            b11 = b.create_block("b11")
            inner0 = b.create_block("inner0")
            inner1 = b.create_block("inner1")
            join = b.create_block("join")

            b.cbr(bit0, inner1, inner0)
            b.set_block(inner0)
            b.cbr(bit1, b01, b00)
            b.set_block(inner1)
            b.cbr(bit1, b11, b10)
            for blk, val in ((b00, 100), (b01, 200), (b10, 300), (b11, 400)):
                b.set_block(blk)
                b.mov_to(res, b.const_i(val))
                b.br(join)
            b.set_block(join)
            addr = b.binop(Opcode.ADD, base, b.binop(Opcode.MUL, tid, b.const_i(8)))
            b.store(addr, res, MemType.I64)
            b.par_end()
            b.ret()

        module = build_kernel_module(
            build,
            globals_setup=lambda m: m.add_global(GlobalVar("out", MemType.I64, 32)),
        )
        dev = small_device()
        image = dev.load_image(module)
        dev.launch(image, "k", num_teams=1, thread_limit=32, collect_timing=False)
        out = dev.memory.read_array(image.symbol("out"), np.int64, 32)
        # b00=100, b01=200, b10=300, b11=400 keyed by (bit0, bit1)
        expect = [100 + 200 * (t & 1) + 50 * (t & 2) for t in range(32)]
        np.testing.assert_array_equal(out, expect)

    def test_barrier_inside_uniform_loop(self):
        """Barrier inside a loop all threads iterate together: every
        iteration's stores must be visible to every thread after the
        barrier (producer/consumer across lanes)."""
        prog = Program("barrier_loop")

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            buf = malloc_i64(32)  # noqa: F821
            errs = malloc_i64(1)  # noqa: F821
            errs[0] = 0
            for t in dgpu.parallel_range(32):
                it = 0
                while it < 4:
                    buf[t] = it * 100 + t
                    dgpu.barrier()
                    # read the neighbour's value written this iteration
                    other = buf[(t + 1) % 32]
                    if other != it * 100 + (t + 1) % 32:
                        dgpu.atomic_add(errs, 1)
                    dgpu.barrier()
                    it += 1
            return errs[0]

        loader = Loader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
        assert loader.run(
            LaunchSpec([[]], thread_limit=32, collect_timing=False)
        ).exit_code == 0

    def test_divergent_sync_detected(self):
        """A barrier reached by only half the warp is OpenMP UB; the
        interpreter must flag it instead of computing garbage."""

        def build(b, fn, module):
            b.par_begin()
            tid = b.tid()
            odd = b.binop(Opcode.AND, tid, b.const_i(1))
            with_bar = b.create_block("withbar")
            without = b.create_block("without")
            join = b.create_block("join")
            b.cbr(odd, with_bar, without)
            b.set_block(with_bar)
            b.barrier()
            b.br(join)
            b.set_block(without)
            b.br(join)
            b.set_block(join)
            b.par_end()
            b.ret()

        module = build_kernel_module(
            build,
            globals_setup=lambda m: m.add_global(GlobalVar("out", MemType.I64, 1)),
        )
        with pytest.raises(DeviceTrap, match="divergent synchronization"):
            dev = small_device()
            image = dev.load_image(module)
            dev.launch(image, "k", num_teams=1, thread_limit=32, collect_timing=False)


class TestPackedDivergence:
    def test_packed_instances_take_different_sequential_paths(self):
        """M=4 packed instances whose *sequential* code branches differently
        per instance: min-PC must interleave the four initial threads
        correctly."""
        prog = Program("packed_div")

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            me = atoi(argv[1])  # noqa: F821
            acc = 0
            if me % 2 == 0:
                i = 0
                while i < me * 10:
                    acc += 1
                    i += 1
            else:
                i = 0
                while i < me * 5:
                    acc += 2
                    i += 1
            return acc

        loader = EnsembleLoader(
            prog,
            GPUDevice(SMALL_DEVICE),
            mapping=PackedMapping(4),
            heap_bytes=1 << 20,
        )
        res = loader.run_ensemble(LaunchSpec(
            [[str(m)] for m in range(1, 9)], thread_limit=128, collect_timing=False
        ))
        expect = [m * 10 if m % 2 == 0 else m * 5 * 2 for m in range(1, 9)]
        assert res.return_codes == expect

    def test_packed_instances_with_parallel_regions(self):
        """Packed instances each run their own worksharing loop over their
        private thread slice with instance-dependent trip counts."""
        prog = Program("packed_par")

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            n = atoi(argv[1])  # noqa: F821
            acc = malloc_i64(1)  # noqa: F821
            acc[0] = 0
            for i in dgpu.parallel_range(n):
                dgpu.atomic_add(acc, i)
            return acc[0]

        loader = EnsembleLoader(
            prog,
            GPUDevice(SMALL_DEVICE),
            mapping=PackedMapping(2),
            heap_bytes=1 << 20,
        )
        res = loader.run_ensemble(LaunchSpec(
            [["5"], ["9"], ["17"], ["33"]], thread_limit=64, collect_timing=False
        ))
        assert res.return_codes == [
            sum(range(5)),
            sum(range(9)),
            sum(range(17)),
            sum(range(33)),
        ]


class TestLongRunning:
    def test_step_limit_guards_livelock(self):
        def build(b, fn, module):
            loop = b.create_block("loop")
            b.br(loop)
            b.set_block(loop)
            b.br(loop)  # infinite

        module = build_kernel_module(
            build,
            globals_setup=lambda m: m.add_global(GlobalVar("out", MemType.I64, 1)),
        )
        dev = small_device()
        image = dev.load_image(module)
        with pytest.raises(DeviceTrap, match="exceeded"):
            dev.launch(
                image, "k", num_teams=1, thread_limit=32,
                collect_timing=False, max_steps=10_000,
            )

    def test_many_teams_sequential_consistency(self):
        """64 teams each bump a global atomically; total must be exact."""

        def build(b, fn, module):
            base = b.gaddr("out")
            b.par_begin()
            b.atomic_add(base, b.const_i(1), MemType.I64)
            b.par_end()
            b.ret()

        module = build_kernel_module(
            build,
            globals_setup=lambda m: m.add_global(GlobalVar("out", MemType.I64, 1)),
        )
        dev = small_device()
        image = dev.load_image(module)
        dev.launch(image, "k", num_teams=64, thread_limit=32, collect_timing=False)
        assert dev.memory.read_i64(image.symbol("out")) == 64 * 32
