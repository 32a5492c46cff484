"""Redundant-barrier elimination: removals proven safe, keeps proven needed.

The acceptance test at the bottom runs a representative ported-OpenMP
program through the interpreter at -O1 and -O2 and checks that -O2 both
removes at least one barrier and preserves the observable output bitwise.
"""

from repro.ir.builder import IRBuilder
from repro.ir.instructions import Opcode
from repro.ir.module import Function, GlobalVar, Module
from repro.ir.types import MemType, ScalarType
from repro.passes.barrier_elim import redundant_barrier_elim_pass
from tests.oracle import Config, check, source_input
from tests.util import count_barriers


def kernel_module(body):
    m = Module("m")
    fn = Function("k", [], ScalarType.VOID, is_kernel=True)
    b = IRBuilder(fn)
    b.set_block(fn.add_block("entry"))
    body(b, fn, m)
    m.add_function(fn)
    return m


class TestRemoves:
    def test_sequential_region_barrier_removed(self):
        def body(b, fn, m):
            b.barrier()  # parallel depth 0: synchronizes one thread
            b.ret()

        m = kernel_module(body)
        redundant_barrier_elim_pass(m)
        assert count_barriers(m) == 0

    def test_private_scratch_barrier_removed(self):
        def body(b, fn, m):
            b.par_begin()
            buf = b.salloc(8)  # per-thread stack object
            b.store(buf, b.const_i(1), MemType.I64)
            b.barrier()  # orders only thread-private accesses
            b.load(buf, MemType.I64)
            b.par_end()
            b.ret()

        m = kernel_module(body)
        redundant_barrier_elim_pass(m)
        assert count_barriers(m) == 0

    def test_no_accesses_at_all_removed(self):
        def body(b, fn, m):
            b.par_begin()
            b.binop(Opcode.ADD, b.const_i(1), b.const_i(2))
            b.barrier()
            b.binop(Opcode.MUL, b.const_i(3), b.const_i(4))
            b.par_end()
            b.ret()

        m = kernel_module(body)
        redundant_barrier_elim_pass(m)
        assert count_barriers(m) == 0


class TestKeeps:
    def test_shared_write_then_read_kept(self):
        def body(b, fn, m):
            m.add_global(GlobalVar("g", MemType.I64, 1))
            b.par_begin()
            a = b.gaddr("g")
            b.store(a, b.const_i(7), MemType.I64)
            b.barrier()  # orders the write against the read below
            b.load(a, MemType.I64)
            b.par_end()
            b.ret()

        m = kernel_module(body)
        redundant_barrier_elim_pass(m)
        assert count_barriers(m) == 1

    def test_unknown_pointer_write_kept(self):
        def body(b, fn, m):
            b.par_begin()
            p = b.kparam(0)  # points to ⊤
            b.store(p, b.const_i(1), MemType.I64)
            b.barrier()
            b.load(p, MemType.I64)
            b.par_end()
            b.ret()

        m = kernel_module(body)
        redundant_barrier_elim_pass(m)
        assert count_barriers(m) == 1

    def test_shfl_traffic_kept(self):
        def body(b, fn, m):
            b.par_begin()
            v = b.const_i(5)
            b.shfl_down(v, b.const_i(1))
            b.barrier()  # may order the register exchange
            b.par_end()
            b.ret()

        m = kernel_module(body)
        redundant_barrier_elim_pass(m)
        assert count_barriers(m) == 1

    def test_atomic_traffic_kept(self):
        def body(b, fn, m):
            m.add_global(GlobalVar("acc", MemType.I64, 1))
            b.par_begin()
            a = b.gaddr("acc")
            b.atomic_add(a, b.const_i(1), MemType.I64)
            b.barrier()
            b.load(a, MemType.I64)
            b.par_end()
            b.ret()

        m = kernel_module(body)
        redundant_barrier_elim_pass(m)
        assert count_barriers(m) == 1

    def test_write_before_and_after_kept(self):
        # write/write conflicts must also be ordered
        def body(b, fn, m):
            m.add_global(GlobalVar("g", MemType.I64, 1))
            b.par_begin()
            a = b.gaddr("g")
            b.store(a, b.const_i(1), MemType.I64)
            b.barrier()
            b.store(a, b.const_i(2), MemType.I64)
            b.par_end()
            b.ret()

        m = kernel_module(body)
        redundant_barrier_elim_pass(m)
        assert count_barriers(m) == 1


SRC = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_f64(64)
    for i in dgpu.parallel_range(64):
        buf[i] = float(i)
    dgpu.barrier()
    total = malloc_f64(1)
    total[0] = 0.0
    for j in range(64):
        total[0] = total[0] + buf[j]
    printf("total %d\\n", int(total[0]))
    return int(total[0]) - 2016
"""


def test_acceptance_o2_removes_barrier_and_preserves_output():
    """-O2 strips at least one barrier from the representative example and
    the interpreter-observed behavior is bitwise identical to -O1."""
    inp = source_input(SRC, timed=True)
    o1, o2 = Config(thread_limit=1024), Config(opt_level=2, thread_limit=1024)
    runs = check(inp, [o1, o2])
    m1, m2 = runs[o1].module, runs[o2].module
    assert count_barriers(m1) >= 1
    assert count_barriers(m2) < count_barriers(m1)
    assert runs[o2].obs.instances == ((0, (), 0, "total 2016\n", None),)
    assert m2.metadata.get("opt_level") == 2
