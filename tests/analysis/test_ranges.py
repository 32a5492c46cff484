"""Interval domain and natural-loop detection."""

from repro.analysis.loops import natural_loops
from repro.analysis.ranges import TOP, Interval
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Opcode
from repro.ir.module import Function, Module
from repro.ir.types import I64, ScalarType


class TestInterval:
    def test_join_and_const(self):
        assert Interval.const(3).join(Interval.const(7)) == Interval(3, 7)
        assert Interval.const(5).as_const == 5
        assert Interval(1, None).join(Interval(0, 4)) == Interval(0, None)

    def test_widen_drops_moving_bounds(self):
        old, new = Interval(0, 10), Interval(0, 20)
        assert old.widen(new) == Interval(0, None)
        assert old.widen(Interval(-1, 10)) == Interval(None, 10)
        assert old.widen(Interval(0, 10)) == Interval(0, 10)

    def test_arithmetic(self):
        a, b = Interval(1, 4), Interval(-2, 3)
        assert a.add(b) == Interval(-1, 7)
        assert a.sub(b) == Interval(-2, 6)
        assert a.mul(Interval.const(8)) == Interval(8, 32)
        assert a.neg() == Interval(-4, -1)
        top = TOP
        assert a.add(top).is_top or a.add(top) == Interval(None, None)


def counting_module(stop=10, step=1):
    """k() { for (i = 0; i < stop; i += step) ; }"""
    m = Module("m")
    fn = Function("k", [], ScalarType.VOID, is_kernel=True)
    b = IRBuilder(fn)
    b.set_block(fn.add_block("entry"))
    i = fn.new_reg(I64)
    b.mov_to(i, b.const_i(0))
    stop_r = b.const_i(stop)
    cond = b.create_block("cond")
    body = b.create_block("body")
    done = b.create_block("done")
    b.br(cond)
    b.set_block(cond)
    c = b.binop(Opcode.ICMP_SLT, i, stop_r)
    b.cbr(c, body, done)
    b.set_block(body)
    t = b.binop(Opcode.ADD, i, b.const_i(step))
    b.mov_to(i, t)
    b.br(cond)
    b.set_block(done)
    b.ret()
    m.add_function(fn)
    labels = {"cond": cond.label, "body": body.label, "done": done.label}
    return m, fn, i, labels


class TestLoops:
    def test_natural_loop_found(self):
        _, fn, _, labels = counting_module()
        loops = natural_loops(fn)
        assert len(loops) == 1 and loops[0].header == labels["cond"]
        assert {labels["cond"], labels["body"]} <= set(loops[0].body)
