"""The compiled (threaded-code) backend: block lowering, loop regions,
caching, the backend-selection API, and trap parity with the
interpreter."""

import pytest

from repro.compilecache import ExecutableCache
from repro.errors import DeviceTrap, LaunchError
from repro.frontend.dsl import Program
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.runtime.backend import (
    DEFAULT_BACKEND,
    SAFETY_MODES,
    Backend,
    CompiledBackend,
    InterpreterBackend,
    available_backends,
    get_backend,
)
from repro.runtime.compiled import CACHE_KEY, SAFETY_CERT_KEY, compile_kernel
from repro.runtime.kernel import ENSEMBLE_KERNEL
from repro.sched import DevicePool, Scheduler


def _compiled_entry(kernel):
    """The (cert, program) the default launch path cached, if any.

    Launches default to ``safety_mode="unchecked"``, so certified kernels
    cache under ``(CACHE_KEY, "unchecked")``; uncertified ones fall back
    to the checked entry.
    """
    entry = kernel.backend_cache.get((CACHE_KEY, "unchecked"))
    return entry or kernel.backend_cache.get((CACHE_KEY, "checked"))
from repro.tools.safety_check import BROKEN
from tests.oracle import ORACLE, Config, check, source_input
from tests.util import SMALL_DEVICE, trace_fields


def _loader(src, **kw):
    return Loader(
        Program.from_source(src), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20, **kw
    )


SIMPLE = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(32)
    for i in dgpu.parallel_range(32):
        buf[i] = i * 3
    total = malloc_i64(1)
    total[0] = 0
    for j in range(32):
        total[0] = total[0] + buf[j]
    return total[0] & 255
"""


class TestBackendRegistry:
    def test_both_engines_registered(self):
        assert available_backends() == ["compiled", "interp"]

    def test_default_is_compiled(self):
        assert DEFAULT_BACKEND == "compiled"

    def test_oracle_stays_on_the_interpreter(self):
        """The differential oracle is pinned, not the default."""
        assert ORACLE.backend == "interp" != DEFAULT_BACKEND

    def test_get_backend_resolves_names(self):
        assert isinstance(get_backend("interp"), InterpreterBackend)
        assert isinstance(get_backend("compiled"), CompiledBackend)

    def test_unknown_name_lists_available(self):
        with pytest.raises(LaunchError, match="compiled, interp"):
            get_backend("jit")

    def test_non_backend_object_rejected(self):
        with pytest.raises(LaunchError, match="Backend"):
            get_backend(42)

    def test_instances_satisfy_protocol(self):
        assert isinstance(InterpreterBackend(), Backend)
        assert isinstance(CompiledBackend(), Backend)

    def test_spec_carries_backend(self):
        spec = LaunchSpec([["x"]], backend="compiled")
        assert spec.backend == "compiled"
        assert LaunchSpec([["x"]]).backend == DEFAULT_BACKEND


class TestCompilation:
    def test_program_cached_per_kernel(self, rsbench_loader):
        res = rsbench_loader.run(
            LaunchSpec(
                [["-p", "8", "-n", "2", "-l", "16", "-s", "1"]],
                thread_limit=32,
                collect_timing=False,
                backend="compiled",
            )
        )
        assert res.exit_code == 0
        kernels = [
            k
            for k in rsbench_loader.image.lowered.values()
            if _compiled_entry(k) is not None
        ]
        assert kernels, "no kernel picked up a compiled program"
        for k in kernels:
            cert, program = _compiled_entry(k)
            mode = "checked" if cert is None else "unchecked"
            recompiled = compile_kernel(k, cert=cert, safety_mode=mode)
            assert recompiled is program  # cache hit, same object
            assert program.blocks  # at least one compilable block
            # every block: leader < end, positive instruction count
            for leader, (end, count, cycles) in program.blocks.items():
                assert 0 <= leader < end
                assert count == end - leader
                assert cycles >= 0.0

    def test_generated_source_is_inspectable(self, rsbench_loader):
        rsbench_loader.run(
            LaunchSpec(
                [["-p", "8", "-n", "2", "-l", "16", "-s", "1"]],
                thread_limit=32,
                collect_timing=False,
                backend="compiled",
            )
        )
        kernel = next(
            k
            for k in rsbench_loader.image.lowered.values()
            if _compiled_entry(k) is not None
        )
        program = _compiled_entry(kernel)[1]
        heads = {
            "blk": "def _blk{}(mask, full):\n    if full:\n",
            "blk1": "def _blk1_{}(mask, k",
            "loop": "def _loop{}(mask, steps, cap",
            "loop1": "def _loop1_{}(mask, k, steps, cap",
        }
        assert set(program.code) == set(program.source)
        for (kind, pc), source in program.source.items():
            assert source.startswith(heads[kind].format(pc))
        # a function is generated on its first call: the run above called
        # row blocks and entered some regions, and skipped others
        kinds = [kind for kind, _ in program.source]
        assert kinds.count("blk") < len(program.blocks)
        entered = {pc for kind, pc in program.source if kind == "loop"}
        assert entered and entered < set(program.regions)


    def test_pool_lowers_and_generates_once_per_kernel(self, monkeypatch):
        """Two devices running one cached executable share its lowered
        kernels and their generated code: one lowering per kernel, one
        program per kernel and safety mode."""
        import repro.gpu.device as device_mod
        import repro.runtime.compiled as compiled_mod

        lowered, generated = [], {}
        real_lower, real_compile = device_mod.lower_kernel, compiled_mod.compile_kernel

        def lower(fn, **kw):
            lowered.append(fn.name)
            return real_lower(fn, **kw)

        def compile_(kernel, **kw):
            program = real_compile(kernel, **kw)
            key = (kernel.name, kw.get("safety_mode"))
            generated.setdefault(key, set()).add(id(program))
            return program

        monkeypatch.setattr(device_mod, "lower_kernel", lower)
        monkeypatch.setattr(compiled_mod, "compile_kernel", compile_)
        pool = DevicePool(2, config=SMALL_DEVICE)
        try:
            sched = Scheduler(pool, cache=ExecutableCache())
            program = Program.from_source(SIMPLE)
            for mode in ("unchecked", "checked"):
                spec = LaunchSpec(
                    [[]], thread_limit=32, collect_timing=False, safety_mode=mode
                )
                jobs = [
                    sched.submit(program, spec, loader_opts={"heap_bytes": 1 << 20})
                    for _ in range(2)
                ]
                for job in jobs:
                    assert job.result().instances[0].exit_code == 208
            devices = sched.stats.summary()["devices"]
        finally:
            pool.close()
        assert all(d["batches"] == 2 for d in devices.values()), devices
        assert lowered == [ENSEMBLE_KERNEL]
        assert {key: len(ids) for key, ids in generated.items()} == {
            (ENSEMBLE_KERNEL, "unchecked"): 1,
            (ENSEMBLE_KERNEL, "checked"): 1,
        }


class TestTrapParity:
    """Faults must raise the same DeviceTrap text on both backends."""

    def _same_trap(self, src):
        # allow_unsafe: these programs are statically DISPROVEN on purpose;
        # the point is that the *dynamic* guard's trap text matches.
        inp = source_input(src, allow_unsafe=True)
        runs = check(inp, [Config("compiled", safety_mode="unchecked")])
        assert runs[ORACLE].obs.trap is not None

    def test_null_guard_trap_matches(self):
        self._same_trap(BROKEN["oob"][0])

    def test_division_by_zero_trap_matches(self):
        self._same_trap(BROKEN["div0"][0])

    def test_livelock_trap_fires_on_compiled(self):
        loader = _loader(SIMPLE)
        with pytest.raises(DeviceTrap, match="interpreter steps"):
            loader.run(LaunchSpec(
                [[]], thread_limit=32, collect_timing=False,
                backend="compiled", max_steps=10,
            ))


class TestEndToEnd:
    def test_simple_program_same_answer(self):
        check(source_input(SIMPLE), [Config("compiled", safety_mode="unchecked")])

    def test_unknown_backend_fails_at_launch(self):
        """The device checks the backend of a launch made without a spec;
        ``test_launch_spec_rejects`` covers the spec."""
        loader = _loader(SIMPLE)
        with pytest.raises(LaunchError, match="unknown backend"):
            loader.device.launch(
                loader.image, ENSEMBLE_KERNEL, num_teams=1, thread_limit=32,
                backend="jit",
            )


#: One parallel region whose every lane runs an inner loop of ``trips``
#: iterations adding ``term`` (``j`` is the trip, ``t`` the lane).
LOOP = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(32)
    for t in dgpu.parallel_range(32):
        acc = 0
        for j in range({trips}):
            acc = acc + {term}
        buf[t] = acc
    total = malloc_i64(1)
    total[0] = 0
    for j in range(32):
        total[0] = total[0] + buf[j]
    return total[0] & 255
"""

#: The inner loop of :data:`LOOP` with a barrier and a team reduction in
#: its body: control ops, so it must stay on block dispatch.
SYNC_LOOP = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(32)
    for t in dgpu.parallel_range(32):
        acc = 0
        for j in range(6):
            acc = acc + dgpu.reduce_add(j * t)
            dgpu.barrier()
        buf[t] = acc
    return buf[3] & 255
"""

#: Two nested uniform loops: only the inner one is a region, entered
#: once per outer trip.
NESTED = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(32)
    for t in dgpu.parallel_range(32):
        acc = 0
        for a in range(4):
            for b in range(5):
                acc = acc + a * b + t
        buf[t] = acc
    return buf[7] & 255
"""

ALL_MODES = [Config("compiled", safety_mode=m) for m in SAFETY_MODES]


@pytest.fixture
def executors(monkeypatch):
    """Every compiled-backend block executor built during the test."""
    made = []
    real = CompiledBackend.executor

    def executor(self, kernel, ctx):
        made.append(real(self, kernel, ctx))
        return made[-1]

    monkeypatch.setattr(CompiledBackend, "executor", executor)
    return made


def _entries(executors) -> int:
    return sum(ex.region_entries for ex in executors)


def _run_compiled(
    src,
    *,
    regions=True,
    scalar=True,
    max_steps=None,
    metrics=None,
    safety_mode="unchecked",
):
    """One timed compiled launch of ``src`` with loop regions and the
    scalar tier on or off; returns the run (or its trap text), the
    team's executor and its finalized trace."""
    from repro.runtime.compiled import CompiledBlockExecutor

    made = []

    class Spy(CompiledBackend):
        def executor(self, kernel, ctx):
            made.append(CompiledBlockExecutor(kernel, ctx))
            if not regions:
                made[-1]._regions = {}
            made[-1].scalar_tier = scalar
            return made[-1]

    loader = _loader(src, allow_unsafe=True)
    loader.device.metrics = metrics
    kw = {} if max_steps is None else {"max_steps": max_steps}
    spec = LaunchSpec(
        [[]],
        thread_limit=32,
        collect_timing=True,
        safety_mode=safety_mode,
        **kw,
    )
    real = loader.device.launch
    loader.device.launch = lambda *a, **k: real(*a, **dict(k, backend=Spy()))
    try:
        outcome = loader.run(spec)
    except DeviceTrap as exc:
        outcome = str(exc)
    (ex,) = made
    return outcome, ex, trace_fields(ex.ctx.collector.finalize())


class TestLoopRegions:
    """Warp-uniform innermost loops run as one generated ``while``; every
    observable matches block dispatch and the interpreter."""

    def test_uniform_loop_diverges_mid_loop(self, executors):
        # odd lanes take one more trip: the latch CBR diverges at j == 8
        src = LOOP.format(trips="8 + t % 2", term="j * t")
        check(source_input(src, timed=True), ALL_MODES)
        assert _entries(executors) == len(ALL_MODES)
        on, off = _run_compiled(src), _run_compiled(src, regions=False)
        assert on[1].region_entries == 1 and off[1].region_entries == 0
        assert on[0].launch.interpreter_steps == off[0].launch.interpreter_steps
        assert on[2] == off[2]

    def test_memory_fault_inside_region(self, executors):
        # every lane reads below the null guard on trip 5 (argc == 1)
        src = LOOP.format(trips=8, term="buf[t - (j // 5) * argc * 1099511627776]")
        runs = check(source_input(src, timed=True, allow_unsafe=True), ALL_MODES)
        assert "null guard" in runs[ORACLE].obs.trap
        assert _entries(executors) == len(ALL_MODES)
        # the trapping team's trace, block by block and region alike:
        # the trapping block counts whole
        on, off = _run_compiled(src), _run_compiled(src, regions=False)
        assert on[0] == off[0] == runs[ORACLE].obs.trap
        assert on[1].region_entries == 1
        assert on[2] == off[2]

    @pytest.mark.parametrize("cap, retired", [(5000, 5002), (5002, 5003)])
    def test_livelock_inside_region(self, executors, cap, retired):
        """The trap retires what block dispatch retires: the pinned counts
        are those block dispatch (``regions=False``) retires in the
        ``__ensemble_entry`` wrapper."""
        src = LOOP.format(trips=1000, term="j * t")
        check(source_input(src, timed=True), ALL_MODES)
        runs = [_run_compiled(src, max_steps=cap, regions=r) for r in (True, False)]
        for outcome, ex, _ in runs:
            assert f"exceeded {cap} interpreter steps" in outcome
            assert ex.steps == retired
        assert [ex.region_entries for _, ex, _ in runs] == [1, 0]
        assert runs[0][2] == runs[1][2]

    def test_sync_in_loop_body_stays_on_block_dispatch(self, executors):
        check(source_input(SYNC_LOOP, timed=True), ALL_MODES)
        assert executors and _entries(executors) == 0
        executors.clear()
        # the same loop without the barrier and reduction is a region
        check(source_input(LOOP.format(trips=6, term="j * t")), ALL_MODES)
        assert _entries(executors) == len(ALL_MODES)

    def test_nested_loop_only_inner_is_a_region(self, executors):
        check(source_input(NESTED, timed=True), ALL_MODES)
        assert [ex.region_entries for ex in executors] == [4] * len(ALL_MODES)

    def test_region_code_is_generated_on_first_entry_only(self):
        """One ``codegen`` span for the kernel's blocks, then one per
        region as it is first entered and one per block as it is first
        called (on the scalar tier too, per one-lane region and block);
        a region no team enters is never generated, and a second launch
        generates nothing."""
        obs = Observability.enabled()
        loader = _loader(LOOP.format(trips=6, term="j * t"))
        loader.device.tracer = obs.tracer
        spec = LaunchSpec([[]], thread_limit=32, collect_timing=False)
        first = loader.run(spec)
        assert loader.run(spec).exit_code == first.exit_code
        _, program = _compiled_entry(loader.image.lowered[ENSEMBLE_KERNEL])
        generated = {
            kind: [pc for k, pc in program.source if k == kind]
            for kind in ("blk", "blk1", "loop", "loop1")
        }
        entered = generated["loop"]
        assert entered and set(entered) < set(program.regions)
        # the sequential sum over ``buf`` is a loop entered with one lane
        assert generated["loop1"]
        assert set(generated["blk1"]) < set(program.blocks)
        spans = [e for e in obs.tracer.events if e.cat == "codegen"]
        assert {(e.name, e.track) for e in spans} == {
            (f"codegen {ENSEMBLE_KERNEL}", "compiler")
        }
        assert spans[0].args == {"mode": "unchecked"}
        lazy = sorted(map(repr, (e.args for e in spans[1:])))
        assert lazy == sorted(
            map(
                repr,
                [{"region": h} for h in entered]
                + [{"region": h, "scalar": True} for h in generated["loop1"]]
                + [{"scalar": leader} for leader in generated["blk1"]]
                + [{"block": leader} for leader in generated["blk"]],
            )
        )

    def test_dispatch_counters_published_per_launch(self):
        metrics = MetricsRegistry()
        src = LOOP.format(trips=50, term="j * t")
        _, ex, _ = _run_compiled(src, metrics=metrics)
        (entries,) = metrics.series("exec.region_entries")
        (blocks,) = metrics.series("exec.block_dispatches")
        assert dict(entries.labels)["backend"] == "compiled"
        assert entries.value == ex.region_entries == 1
        assert blocks.value == ex.block_dispatches > 0

    def test_trace_counters_published_per_timed_launch(self):
        metrics = MetricsRegistry()
        src = LOOP.format(trips=50, term="j * t")
        _, _, fields = _run_compiled(src, metrics=metrics)
        (phases,) = metrics.series("trace.phases")
        (rows,) = metrics.series("trace.logged_rows")
        row_transitions, phase_fields = fields[1], fields[5]
        assert phases.value == len(phase_fields) > 0
        # one row per memory instruction, each at least one transaction
        assert 0 < rows.value <= row_transitions


#: int64 wrap on ADD/MUL/SHL (a loop runs as a one-lane region), then
#: SDIV/SREM on negative operands and on the most negative int64.
WRAP = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    x = argc * 4611686018427387904
    acc = argc
    for j in range(7):
        acc = acc * 6364136223846793005 + (j << 60)
    printf("%d %d %d %d %d\\n", x * 4, x + x, argc << 63, (argc * 3) << 62, acc)
    a = -7 * argc
    b = 2 * argc
    m = argc << 63
    q = 0
    for j in range(5):
        q = q * 3 + (a - j) // (b - 4) + (a + j) % (0 - b)
    printf(
        "%d %d %d %d %d %d %d\\n",
        a // b, a % b, (0 - a) // (0 - b), a % (0 - b),
        m // (0 - argc), m % (0 - argc), q,
    )
    return 0
"""

#: Narrowing integer stores (in sequential code and across the int8
#: range inside a loop), float32 stores rounding, overflowing and
#: underflowing, widening loads, FMIN/FMAX with NaN, transcendentals and
#: FPOW, and FPTOSI beyond the int64 range; floats print as their bits.
CASTS = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    p = malloc(64)
    p32 = dgpu.cast(p, ptr_i32)
    pf = dgpu.cast(p + 32, ptr_f32)
    p32[0] = (argc << 40) + 5
    p32[1] = argc << 31
    p[8] = 200 * argc
    p[9] = -129 * argc
    for j in range(4):
        p[16 + j] = (j + 126) * argc
    pf[0] = 1e300 * argc
    pf[1] = 0.1 * argc
    pf[2] = 3.4028235677973366e38 * argc
    pf[3] = 7.006492321624085e-46 * argc
    bits = dgpu.cast(p + 32, ptr_i32)
    printf(
        "%d %d %d %d %d %d %d %d\\n",
        p32[0], p32[1], p[8], p[9], p[16], p[17], p[18], p[19],
    )
    printf("%d %d %d %d %.17g\\n", bits[0], bits[1], bits[2], bits[3], pf[1] * 3.0)
    inf = 1e308 * 10.0 * argc
    n = inf - inf
    q = malloc_f64(8)
    q[0] = dgpu.fmin(n, 1.0)
    q[1] = dgpu.fmin(1.0, 0.0 - n)
    q[2] = dgpu.fmax(n, 1.0)
    q[3] = dgpu.fmax(1.0, n)
    q[4] = dgpu.pow(0.0 - 8.0 * argc, 1.0 / 3.0)
    q[5] = dgpu.sqrt(0.0 - argc)
    q[6] = dgpu.exp(0.5 * argc) + dgpu.log(3.0 * argc) + dgpu.sin(2.0 * argc)
    q[7] = min(0.0 - n, 2.0)
    b = dgpu.cast(q, ptr_i64)
    printf(
        "%d %d %d %d %d %d %d %d\\n", b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
    )
    f = 1e30 * argc
    printf(
        "%d %d %d %d\\n", int(f), int(0.0 - f), int(9.3e18 * argc), int(-2.5 * argc)
    )
    return 0
"""

#: A one-lane loop whose body allocates stack (SALLOC) and adds
#: atomically: interpreter handlers inside a scalar region.
HANDLERS = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    cnt = malloc_i64(1)
    cnt[0] = 0
    acc = 0
    for j in range(6):
        s = dgpu.stack_i64(2)
        s[0] = j * argc
        s[1] = dgpu.atomic_add(cnt, j + 1)
        acc = acc + s[0] * 100 + s[1]
    printf("%d %d\\n", acc, cnt[0])
    return 0
"""

#: Registers written inside a one-lane loop and read after it exits.
WRITE_BACK = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    acc = 0
    last = 0
    for j in range(10):
        acc = acc + j * argc
        last = j * 7
    printf("%d %d\\n", acc, last)
    return acc & 255
"""

#: One-lane faults: (trap text, program).  Each fires on the scalar
#: tier, in a block or (``loop``) inside a one-lane region.
SCALAR_FAULTS = {
    "null": (
        "null guard",
        """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(8)
    acc = 0
    for j in range(8):
        acc = acc + buf[j - (j // 5) * argc * 1099511627776]
    return acc
""",
    ),
    "misaligned_load": (
        "misaligned i64",
        """
def main(argc: i64, argv: ptr_ptr) -> i64:
    q = dgpu.cast(malloc(64) + 3 * argc, ptr_i64)
    return q[0]
""",
    ),
    "misaligned_store": (
        "misaligned i32",
        """
def main(argc: i64, argv: ptr_ptr) -> i64:
    q = dgpu.cast(malloc(64) + 2 * argc, ptr_i32)
    q[0] = 5
    return 0
""",
    ),
    "beyond_end": (
        "beyond device memory end",
        """
def main(argc: i64, argv: ptr_ptr) -> i64:
    p = malloc_i64(4)
    acc = 0
    for j in range(4):
        acc = acc + p[j * argc * 100000000]
    return acc
""",
    ),
    "div0": (
        "integer division by zero",
        """
def main(argc: i64, argv: ptr_ptr) -> i64:
    acc = 0
    for j in range(4):
        acc = acc + 100 // (j - 2 * argc)
    return acc
""",
    ),
    "fptosi_inf": (
        "non-finite",
        """
def main(argc: i64, argv: ptr_ptr) -> i64:
    f = 1e308 * 10.0 * argc
    return int(f)
""",
    ),
}

#: A sequential loop long enough to hit the step cap.
SPIN = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    acc = 0
    for j in range(1000):
        acc = acc + j * argc
    return acc & 255
"""


def _outcome(run):
    """A run's comparable outcome: its trap text or its observables."""
    from repro.host.results import Observables

    return run if isinstance(run, str) else Observables.of(run)


class TestScalarTier:
    """One runnable lane runs on numpy scalars (blocks and loop regions):
    every case agrees with the interpreter in each safety mode, and with
    the same compiled launch on the masked bodies (scalar tier off) in
    steps and every trace field."""

    def _same(self, src, *, loop=True):
        """``src``'s oracle observables, after the checks; ``loop``: a
        one-lane region ran."""
        runs = check(source_input(src, timed=True, allow_unsafe=True), ALL_MODES)
        for mode in SAFETY_MODES:
            on, off = (
                _run_compiled(src, scalar=s, safety_mode=mode) for s in (True, False)
            )
            assert on[1].scalar_dispatches > 0
            if loop:
                assert on[1].scalar_region_entries > 0
            assert off[1].scalar_dispatches == off[1].scalar_region_entries == 0
            assert _outcome(on[0]) == _outcome(off[0])
            assert on[1].steps == off[1].steps
            assert on[2] == off[2]
            if isinstance(on[0], str):
                assert on[0] == runs[ORACLE].obs.trap
        return runs[ORACLE].obs

    def _stdout(self, src, **kw) -> str:
        return self._same(src, **kw).instances[0][3]

    def test_int64_wrap_and_signed_division(self):
        out = self._stdout(WRAP)
        assert out.splitlines()[0].startswith(
            "0 -9223372036854775808 -9223372036854775808 -4611686018427387904 "
        )
        assert out.splitlines()[1].startswith("-3 -1 -3 -1 -9223372036854775808 0 ")

    def test_narrowing_stores_float_casts_and_nan(self):
        lines = self._stdout(CASTS).splitlines()
        assert lines[0] == "5 -2147483648 -56 127 126 127 -128 -127"
        assert lines[3].split()[:3] == ["-9223372036854775808"] * 3

    def test_handlers_inside_a_one_lane_loop(self):
        assert self._stdout(HANDLERS) == "1535 21\n"

    def test_registers_written_back_when_the_loop_exits(self):
        assert self._stdout(WRITE_BACK) == "45 63\n"

    @pytest.mark.parametrize("case", sorted(SCALAR_FAULTS))
    def test_fault_in_one_lane_code(self, case):
        text, src = SCALAR_FAULTS[case]
        obs = self._same(src, loop="for " in src)
        assert text in obs.trap

    @pytest.mark.parametrize("cap, retired", [(5000, 5002), (5002, 5003)])
    def test_livelock_inside_one_lane_region(self, cap, retired):
        """The trap retires what block dispatch retires: the pinned counts
        are those of the masked bodies without regions, and those of a
        full-row region over the same loop (``test_livelock_inside_region``)."""
        check(source_input(SPIN, timed=True), ALL_MODES)
        runs = [
            _run_compiled(SPIN, max_steps=cap, scalar=s, regions=r)
            for s, r in ((True, True), (False, True), (False, False))
        ]
        for outcome, ex, _ in runs:
            assert f"exceeded {cap} interpreter steps" in outcome
            assert ex.steps == retired
        assert runs[0][1].scalar_region_entries == 1
        assert runs[0][2] == runs[1][2] == runs[2][2]

    def test_counters_published_per_launch(self):
        metrics = MetricsRegistry()
        _, ex, _ = _run_compiled(WRITE_BACK, metrics=metrics)
        (blocks,) = metrics.series("exec.scalar_dispatches")
        (entries,) = metrics.series("exec.scalar_region_entries")
        assert dict(blocks.labels)["backend"] == "compiled"
        assert blocks.value == ex.scalar_dispatches > 0
        assert entries.value == ex.scalar_region_entries == 1
