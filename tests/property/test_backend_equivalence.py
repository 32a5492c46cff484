"""Property: the compiled backend is observationally identical to the
interpreter.

Hypothesis generates random DSL programs (same shape as the -O1/-O2
equivalence suite) and runs each on both execution backends; exit code,
stdout, and the retired-step count must match bitwise at every opt level,
with timing on and off, and under a recovered fault plan.  With timing
on, every per-team :class:`~repro.gpu.timing.BlockTrace` field must match
too.  The registry apps pin the same contract on real workloads.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.apps.registry import APPS
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from repro.runtime.backend import available_backends
from repro.runtime.compiled import SAFETY_MODES
from repro.runtime.trace import TraceCollector
from repro.sched import DevicePool, Scheduler
from tests.property.test_opt_equivalence import build_program, program_specs, render
from tests.util import SMALL_DEVICE, trace_fields


def run_on(
    src: str,
    backend: str,
    opt_level: int,
    *,
    timing: bool = False,
    thread_limit: int = 32,
):
    loader = Loader(
        build_program(src),
        GPUDevice(SMALL_DEVICE),
        heap_bytes=1 << 20,
        opt_level=opt_level,
    )
    return loader.run(
        [], thread_limit=thread_limit, collect_timing=timing, backend=backend
    )


def observables(res):
    return (res.exit_code, res.stdout, res.launch.interpreter_steps)


def traces(res):
    """Every field of every team's trace, in team order."""
    return [trace_fields(t) for t in res.launch.traces]


@settings(max_examples=15, deadline=None)
@given(program_specs)
def test_compiled_matches_interp_bitwise(spec):
    src = render(spec)
    for opt_level in (1, 2):
        ri = run_on(src, "interp", opt_level)
        rc = run_on(src, "compiled", opt_level)
        assert observables(rc) == observables(ri), f"-O{opt_level}\n{src}"


@settings(max_examples=6, deadline=None)
@given(program_specs)
def test_compiled_matches_interp_with_timing(spec):
    """With the collector armed the compiled backend must also reproduce
    the cycle count and every trace field exactly (it batches trace notes
    per block, but the aggregate is the interpreter's)."""
    src = render(spec)
    ri = run_on(src, "interp", 2, timing=True)
    rc = run_on(src, "compiled", 2, timing=True)
    assert observables(rc) == observables(ri), f"\n{src}"
    assert rc.launch.timing.cycles == ri.launch.timing.cycles, f"\n{src}"
    assert traces(rc) == traces(ri), f"\n{src}"


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("opt_level", [1, 2])
def test_registry_apps_bitwise_equivalent(app, opt_level):
    entry = APPS[app]
    prog = entry.build_program()
    results = {}
    for backend in available_backends():
        loader = Loader(prog, GPUDevice(), opt_level=opt_level)
        results[backend] = loader.run(
            entry.default_args(),
            thread_limit=64,
            collect_timing=False,
            backend=backend,
        )
    baseline = observables(results["interp"])
    for backend, res in results.items():
        assert observables(res) == baseline, (app, opt_level, backend)


#: Registry-app inputs small enough to run timed on the interpreter.
TIMED_ARGS = {
    "xsbench": ["-g", "128", "-n", "4", "-l", "32", "-s", "1"],
    "rsbench": ["-p", "8", "-n", "2", "-l", "16", "-s", "1"],
    "amgmk": ["-n", "256", "-i", "1", "-s", "1"],
    "stream": ["-n", "512", "-r", "1", "-s", "1"],
    "stencil": ["-n", "256", "-i", "1", "-s", "1"],
    "pagerank": ["-n", "256", "-d", "4", "-i", "1", "-s", "1"],
}


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("opt_level", [1, 2])
def test_registry_apps_timed_traces_equivalent(app, opt_level):
    """Timed runs of every registry app: the compiled backend in every
    safety mode reproduces the interpreter's cycles and per-team traces
    bitwise (two warps per team, so per-warp streams interleave)."""
    prog = APPS[app].build_program()

    def run(backend, mode="unchecked"):
        loader = Loader(prog, GPUDevice(SMALL_DEVICE), opt_level=opt_level)
        return loader.run(
            TIMED_ARGS[app],
            thread_limit=64,
            collect_timing=True,
            backend=backend,
            safety_mode=mode,
        )

    ri = run("interp")
    for mode in SAFETY_MODES:
        rc = run("compiled", mode)
        assert observables(rc) == observables(ri), (app, mode)
        assert rc.cycles == ri.cycles, (app, mode)
        assert traces(rc) == traces(ri), (app, mode)


DIVERGENT = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(64)
    for i in dgpu.parallel_range(64):
        v = i
        if i % 3 == 0:
            for k in range(6):
                v = v * 5 + k
                v = v - (v // 7) * 2 + buf[(i + k) % 64]
        else:
            for k in range(4):
                v = v * 3 - k
                buf[i] = v + buf[(i + 1) % 64]
        buf[i] = v
    total = malloc_i64(1)
    total[0] = 0
    for j in range(64):
        total[0] = total[0] + buf[j]
    return total[0] & 255
"""


def test_divergent_blocks_stay_on_the_fast_path_when_timed(monkeypatch):
    """Chained divergent blocks are noted once per block, not through a
    per-instruction ``on_instr`` call, yet the traces match the
    interpreter's."""
    calls = {"n": 0}
    real = TraceCollector.on_instr

    def spy(self, op, warp_mask):
        calls["n"] += 1
        real(self, op, warp_mask)

    monkeypatch.setattr(TraceCollector, "on_instr", spy)
    counted = {}
    results = {}
    for backend in ("interp", "compiled"):
        calls["n"] = 0
        results[backend] = run_on(
            DIVERGENT, backend, 2, timing=True, thread_limit=64
        )
        counted[backend] = calls["n"]
    ri, rc = results["interp"], results["compiled"]
    assert observables(rc) == observables(ri)
    assert traces(rc) == traces(ri)
    divergent = sum(t.divergent_instructions for t in ri.launch.traces)
    assert divergent > 150
    assert counted["interp"] == divergent
    assert counted["compiled"] < divergent // 10


def _campaign_fingerprint(backend: str, plan: str | None):
    src = render((24, 3, 1, True, False, True, True))
    prog = build_program(src)
    pool = DevicePool(2, config=SMALL_DEVICE)
    sched = Scheduler(pool, faults=plan, default_retries=4)
    spec = LaunchSpec(
        [[str(i)] for i in range(4)],
        thread_limit=32,
        collect_timing=False,
        backend=backend,
    )
    result = sched.submit(
        prog, spec, loader_opts={"heap_bytes": 1 << 20}
    ).result()
    stats = sched.stats.summary()
    pool.close()
    fp = [(o.index, o.args, o.exit_code, o.stdout) for o in result.instances]
    return fp, stats


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_equivalence_under_recovered_fault_plan(backend):
    """A transient worker death is recovered by retry on both backends,
    and the recovered run matches the interpreter's fault-free run."""
    baseline, base_stats = _campaign_fingerprint("interp", None)
    assert base_stats["faults_injected"] == 0
    faulted, stats = _campaign_fingerprint(
        backend, "worker_death:times=1:seed=0"
    )
    assert faulted == baseline
    assert stats["faults_injected"] == 1
    assert stats["faults_recovered"] == 1
