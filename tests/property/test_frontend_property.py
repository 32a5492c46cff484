"""Property test: random arithmetic programs compile and compute what a
host-side C-semantics evaluator computes.

Hypothesis generates expression DAGs over int64 variables with C-like
operators; the generator renders each DAG to restricted-Python source,
compiles it through the full pipeline, executes it on the simulated GPU,
and compares the exit code against a Python big-int evaluator with 64-bit
wraparound and C division/shift semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.dsl import Program
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from tests.util import SMALL_DEVICE

_MASK = (1 << 64) - 1


def _wrap(x: int) -> int:
    x &= _MASK
    return x - (1 << 64) if x >= (1 << 63) else x


_OPS = {
    "+": lambda a, b: _wrap(a + b),
    "-": lambda a, b: _wrap(a - b),
    "*": lambda a, b: _wrap(a * b),
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
}

node = st.tuples(
    st.sampled_from(sorted(_OPS)),
    st.integers(0, 50),  # left operand index
    st.integers(0, 50),  # right operand index
)

seeds = st.lists(st.integers(-(2**31), 2**31), min_size=2, max_size=4)
programs = st.tuples(seeds, st.lists(node, min_size=1, max_size=25))


def render_program(seed_vals, ops) -> tuple[str, int]:
    """Emit restricted-Python source + the expected (wrapped) result."""
    lines = []
    model = []
    for i, v in enumerate(seed_vals):
        lines.append(f"    v{i} = {v}")
        model.append(v)
    for op, ia, ib, in ops:
        a = ia % len(model)
        b = ib % len(model)
        lines.append(f"    v{len(model)} = v{a} {op} v{b}")
        model.append(_OPS[op](model[a], model[b]))
    # compress into a byte-sized exit code to stay in exit-code range
    result = model[-1] & 0xFF
    lines.append(f"    return v{len(model) - 1} & 255")
    src = "def main(argc: i64, argv: ptr_ptr) -> i64:\n" + "\n".join(lines)
    return src, result


loop_body_op = st.tuples(
    st.sampled_from(sorted(_OPS)),
    st.integers(0, 2),  # target accumulator
    st.integers(0, 3),  # source: acc 0..2, or 3 = the loop index
)
loop_programs = st.tuples(
    st.lists(st.integers(-(2**20), 2**20), min_size=3, max_size=3),  # seeds
    st.integers(0, 12),  # trip count
    st.lists(loop_body_op, min_size=1, max_size=8),
)


def render_loop_program(seed_vals, trips, body) -> tuple[str, int]:
    lines = [f"    a{i} = {v}" for i, v in enumerate(seed_vals)]
    lines.append(f"    for i in range({trips}):")
    for op, tgt, src in body:
        rhs = "i" if src == 3 else f"a{src}"
        lines.append(f"        a{tgt} = a{tgt} {op} {rhs}")
    lines.append("    return (a0 ^ a1 ^ a2) & 255")
    src_text = "def main(argc: i64, argv: ptr_ptr) -> i64:\n" + "\n".join(lines)

    accs = list(seed_vals)
    for i in range(trips):
        for op, tgt, srci in body:
            rhs = i if srci == 3 else accs[srci]
            accs[tgt] = _OPS[op](accs[tgt], rhs)
    return src_text, (accs[0] ^ accs[1] ^ accs[2]) & 255


@settings(max_examples=25, deadline=None)
@given(loop_programs)
def test_random_loop_programs_match_c_model(spec):
    seed_vals, trips, body = spec
    src, expected = render_loop_program(seed_vals, trips, body)

    prog = Program.from_source(src, name="randloop", link_libc=False)
    loader = Loader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
    res = loader.run(LaunchSpec([[]], thread_limit=32, collect_timing=False))
    assert res.exit_code == expected, f"\n{src}\nexpected {expected}, got {res.exit_code}"


@settings(max_examples=25, deadline=None)
@given(programs)
def test_random_arithmetic_matches_c_model(spec):
    seed_vals, ops = spec
    src, expected = render_program(seed_vals, ops)

    prog = Program.from_source(src, name="randprog", link_libc=False)
    loader = Loader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
    res = loader.run(LaunchSpec([[]], thread_limit=32, collect_timing=False))
    assert res.exit_code == expected, f"\n{src}\nexpected {expected}, got {res.exit_code}"
