"""Loop-invariant code motion: structure, safety, semantics."""

import numpy as np

from repro.ir.builder import IRBuilder
from repro.ir.instructions import Opcode
from repro.ir.module import Function, GlobalVar, Module
from repro.ir.types import I64, MemType, ScalarType
from repro.ir.verifier import verify_module
from repro.passes.licm import licm_pass
from repro.host.launch import LaunchSpec
from tests.util import small_device


def loop_module(invariant_in_body=True):
    """k: for i in 0..9: out[0] += (5*7) [+ i]  — the 5*7 is invariant."""
    m = Module("m")
    m.add_global(GlobalVar("out", MemType.I64, 2))
    fn = Function("k", [], ScalarType.VOID, is_kernel=True)
    b = IRBuilder(fn)
    b.set_block(fn.add_block("entry"))
    i = fn.new_reg(I64)
    b.mov_to(i, b.const_i(0))
    cond = b.create_block("cond")
    body = b.create_block("body")
    done = b.create_block("done")
    b.br(cond)
    b.set_block(cond)
    c = b.binop(Opcode.ICMP_SLT, i, b.const_i(10))
    b.cbr(c, body, done)
    b.set_block(body)
    inv = b.binop(Opcode.MUL, b.const_i(5), b.const_i(7))  # invariant
    addend = b.binop(Opcode.ADD, inv, i) if not invariant_in_body else inv
    b.atomic_add(b.gaddr("out"), addend, MemType.I64)
    b.mov_to(i, b.binop(Opcode.ADD, i, b.const_i(1)))
    b.br(cond)
    b.set_block(done)
    b.ret()
    m.add_function(fn)
    return m, fn


def instrs_in_blocks(fn, labels):
    out = []
    for lbl in fn.block_order:
        if any(lbl.startswith(x) for x in labels):
            out.extend(fn.blocks[lbl].instrs)
    return out


def execute_out(m):
    dev = small_device()
    image = dev.load_image(m)
    dev.launch(image, "k", num_teams=1, thread_limit=32, collect_timing=False)
    return dev.memory.read_array(image.symbol("out"), np.int64, 2)


class TestHoisting:
    def test_invariant_mul_leaves_the_loop(self):
        m, fn = loop_module()
        before_body = len(instrs_in_blocks(fn, ("body",)))
        licm_pass(m)
        verify_module(m)
        after_body = len(instrs_in_blocks(fn, ("body",)))
        assert after_body < before_body
        # a preheader block was created
        assert any(lbl.startswith("licm.") for lbl in fn.block_order)
        # the MUL now lives in the preheader
        pre = next(lbl for lbl in fn.block_order if lbl.startswith("licm."))
        assert any(i.op is Opcode.MUL for i in fn.blocks[pre].instrs)

    def test_semantics_preserved(self):
        m1, _ = loop_module()
        m2, _ = loop_module()
        licm_pass(m2)
        np.testing.assert_array_equal(execute_out(m1), execute_out(m2))
        assert execute_out(m2)[0] == 35 * 10

    def test_variant_value_not_hoisted(self):
        m, fn = loop_module(invariant_in_body=False)
        licm_pass(m)
        verify_module(m)
        # the ADD using the induction variable must stay in the loop
        body_ops = [i.op for i in instrs_in_blocks(fn, ("body",))]
        assert Opcode.ADD in body_ops
        assert execute_out(m)[0] == sum(35 + i for i in range(10))

    def test_gaddr_hoisted(self):
        m, fn = loop_module()
        licm_pass(m)
        body_ops = [i.op for i in instrs_in_blocks(fn, ("body",))]
        assert Opcode.GADDR not in body_ops

    def test_atomic_never_hoisted(self):
        m, fn = loop_module()
        licm_pass(m)
        body_ops = [i.op for i in instrs_in_blocks(fn, ("body",))]
        assert Opcode.ATOMIC_ADD in body_ops

    def test_idempotent(self):
        m, fn = loop_module()
        licm_pass(m)
        snapshot = [(lbl, len(fn.blocks[lbl].instrs)) for lbl in fn.block_order]
        licm_pass(m)
        assert snapshot == [(lbl, len(fn.blocks[lbl].instrs)) for lbl in fn.block_order]


class TestParRegionSafety:
    def test_tid_not_hoisted_across_par_begin(self):
        """A sequential loop wrapping a parallel region: tid must stay put,
        or the par_begin register broadcast would clobber the hoisted value
        with the initial thread's copy (AMGmk's structure)."""
        from repro.frontend import Program, dgpu, i64, ptr_ptr
        from repro.gpu.device import GPUDevice
        from repro.host.loader import Loader
        from tests.util import SMALL_DEVICE

        prog = Program("sweeps")

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            out = malloc_i64(32)  # noqa: F821
            j = 0
            while j < 32:
                out[j] = 0
                j += 1
            it = 0
            while it < 3:  # sequential loop around a parallel region
                for t in dgpu.parallel_range(32):
                    out[t] = out[t] + t
                it += 1
            total = 0
            j = 0
            while j < 32:
                total += out[j]
                j += 1
            return total

        loader = Loader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
        res = loader.run(LaunchSpec([[]], thread_limit=32, collect_timing=False))
        assert res.exit_code == 3 * sum(range(32))

    def test_full_pipeline_apps_still_correct(self):
        """End-to-end guard: XSBench through the pipeline (with LICM) still
        matches its reference after hoisting."""
        import re

        from repro.apps import reference, xsbench
        from repro.gpu.device import GPUDevice
        from repro.host.ensemble_loader import EnsembleLoader
        from tests.util import SMALL_DEVICE

        loader = EnsembleLoader(
            xsbench.build_program(), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 22
        )
        res = loader.run_ensemble(LaunchSpec(
            [["-g", "64", "-n", "2", "-l", "16", "-s", "9"]],
            thread_limit=32, collect_timing=False,
        ))
        got = float(re.search(r"checksum ([-\d.]+)", res.instances[0].stdout).group(1))
        assert abs(got - reference.xsbench_checksum(64, 2, 16, 9)) < 1e-6


class TestEntryHeaderLoop:
    def test_loop_with_entry_header(self):
        """A loop whose header is the entry block gets a new entry preheader."""
        m = Module("m")
        m.add_global(GlobalVar("out", MemType.I64, 1))
        fn = Function("k", [], ScalarType.VOID, is_kernel=True)
        b = IRBuilder(fn)
        header = fn.add_block("entry")
        b.set_block(header)
        i = fn.new_reg(I64)
        # header both receives the back edge and starts the function
        inv = b.binop(Opcode.MUL, b.const_i(3), b.const_i(3))
        old = b.atomic_add(b.gaddr("out"), inv, MemType.I64)
        done = b.create_block("done")
        c = b.binop(Opcode.ICMP_SGE, old, b.const_i(27))
        b.cbr(c, done, header)
        b.set_block(done)
        b.ret()
        m.add_function(fn)
        licm_pass(m)
        verify_module(m)
        assert fn.block_order[0].startswith("licm.")
        assert execute_out_single(m) == 36


def execute_out_single(m):
    dev = small_device()
    image = dev.load_image(m)
    dev.launch(image, "k", num_teams=1, thread_limit=32, collect_timing=False)
    return int(dev.memory.read_i64(image.symbol("out")))


class TestRepeatedHoisting:
    """A later pass run (the alias-sharpened -O2 LICM) can hoist *new* code
    out of a loop that already received a preheader.  The second preheader
    must get a fresh label — a duplicate would overwrite the blocks entry
    while block_order gained a second occurrence, desyncing the CFG."""

    def test_second_run_with_new_invariants_gets_unique_preheader(self):
        m, fn = loop_module()
        licm_pass(m)
        first_pre = [lbl for lbl in fn.block_order if lbl.startswith("licm.")]
        assert len(first_pre) == 1

        # Plant a fresh invariant single-def value in the body, as if a
        # sharper analysis had just made it hoistable.
        from repro.ir.instructions import Instr

        body_lbl = next(lbl for lbl in fn.block_order if lbl.startswith("body"))
        body = fn.blocks[body_lbl]
        nine = fn.new_reg(I64)
        inv = Instr(Opcode.MUL, dest=fn.new_reg(I64), args=(nine, nine))
        body.instrs[-1:-1] = [Instr(Opcode.MOVI, dest=nine, imm=9), inv]

        licm_pass(m)
        pres = [lbl for lbl in fn.block_order if lbl.startswith("licm.")]
        assert len(pres) == 2
        assert len(fn.block_order) == len(set(fn.block_order))
        assert set(fn.block_order) == set(fn.blocks)
        verify_module(m)
        assert execute_out(m)[0] == 35 * 10

    def test_stream_app_finalizes_at_o2(self):
        """End-to-end regression: stream's while-loops hit exactly the
        double-hoist shape (O1 LICM then -O2 read-only-load LICM on the
        same headers); cfg-simplify used to KeyError on the duplicate
        preheader label."""
        from repro.apps import stream
        from repro.passes import compile_for_device, finalize_executable
        from repro.runtime.kernel import build_ensemble_kernel, build_single_kernel

        module = compile_for_device(stream.build_program().compile())
        build_single_kernel(module)
        build_ensemble_kernel(module)
        module = finalize_executable(module, opt_level=2)
        verify_module(module)
        for f in module.functions.values():
            assert len(f.block_order) == len(set(f.block_order))
            assert set(f.block_order) == set(f.blocks)
