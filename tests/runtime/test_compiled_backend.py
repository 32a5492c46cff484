"""The compiled (threaded-code) backend: block lowering, caching, the
backend-selection API, and trap parity with the interpreter."""

import pytest

from repro.compilecache import ExecutableCache
from repro.errors import DeviceTrap, LaunchError
from repro.frontend.dsl import Program
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from repro.runtime.backend import (
    DEFAULT_BACKEND,
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
    to the plain checked entry.
    """
    entry = kernel.backend_cache.get((CACHE_KEY, "unchecked"))
    if entry is not None:
        return entry
    program = kernel.backend_cache.get(CACHE_KEY)
    return (None, program) if program is not None else None
from repro.tools.safety_check import BROKEN
from tests.oracle import ORACLE, Config, check, source_input
from tests.util import SMALL_DEVICE


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
        src = _compiled_entry(kernel)[1].source
        assert "def _blk0(mask, full" in src
        assert "if full:" in src


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
            loader.run([], thread_limit=32, collect_timing=False,
                       backend="compiled", max_steps=10)


class TestEndToEnd:
    def test_simple_program_same_answer(self):
        check(source_input(SIMPLE), [Config("compiled", safety_mode="unchecked")])

    def test_unknown_backend_fails_at_launch(self):
        with pytest.raises(LaunchError, match="unknown backend"):
            _loader(SIMPLE).run(
                [], thread_limit=32, collect_timing=False, backend="jit"
            )
