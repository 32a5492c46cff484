"""Property test: OpenMP-style worksharing semantics are schedule-free.

Random integer workloads executed through ``dgpu.parallel_range`` with
atomic accumulation must produce the same result (a) as a sequential
Python model and (b) under every thread limit — partitioning work
differently must never change integer results.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.dsl import Program
from repro.gpu.device import GPUDevice
from repro.host.loader import Loader
from tests.util import SMALL_DEVICE

body_terms = st.lists(
    st.tuples(
        st.sampled_from(["i", "c"]),  # term uses the index or a constant
        st.integers(-50, 50),  # the constant / index multiplier
    ),
    min_size=1,
    max_size=4,
)
specs = st.tuples(st.integers(0, 70), body_terms)


def render(trips: int, terms) -> tuple[str, int]:
    exprs = []
    model_per_i = []
    for kind, k in terms:
        if kind == "i":
            exprs.append(f"i * {k}")
            model_per_i.append(lambda i, k=k: i * k)
        else:
            exprs.append(str(k))
            model_per_i.append(lambda i, k=k: k)
    expr = " + ".join(exprs)
    src = f"""
def main(argc: i64, argv: ptr_ptr) -> i64:
    acc = malloc_i64(1)
    acc[0] = 0
    for i in dgpu.parallel_range({trips}):
        dgpu.atomic_add(acc, {expr})
    return acc[0] & 65535
"""
    expected = sum(sum(f(i) for f in model_per_i) for i in range(trips)) & 65535
    return src, expected


@settings(max_examples=20, deadline=None)
@given(specs)
def test_worksharing_matches_sequential_model_across_thread_limits(spec):
    trips, terms = spec
    src, expected = render(trips, terms)

    loader = Loader(Program.from_source(src, name="parprop"), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
    results = {
        t: loader.run([], thread_limit=t, collect_timing=False).exit_code
        for t in (32, 64, 256)
    }
    assert set(results.values()) == {expected}, f"\n{src}\n{results} != {expected}"
