"""The compiled backend is observationally identical to the interpreter.

Hypothesis-generated programs and every registry app run through the
differential oracle (:mod:`tests.oracle`) on both backends, at -O1 and
-O2, timed and untimed, in every safety mode and under a recovered fault
plan; the backend and safety-mode axes keep every field, per-team traces
included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.apps.registry import APPS
from repro.host.launch import LaunchSpec
from repro.runtime.compiled import SAFETY_MODES
from repro.runtime.trace import TraceCollector
from tests.oracle import (
    ORACLE,
    Config,
    app_input,
    check,
    program_specs,
    render,
    run,
    source_input,
)
from tests.util import SMALL_DEVICE

O2 = Config(opt_level=2)


def compiled(opt_level: int = 1, mode: str = "unchecked", **kw) -> Config:
    return Config("compiled", opt_level, mode, **kw)


@settings(max_examples=15, deadline=None)
@given(program_specs)
def test_compiled_matches_interp_bitwise(spec):
    check(source_input(render(spec)), [compiled(1), O2, compiled(2)])


@settings(max_examples=6, deadline=None)
@given(program_specs)
def test_compiled_matches_interp_with_timing(spec):
    """With the collector armed the compiled backend also reproduces the
    cycle count and every trace field (it batches trace notes per block,
    but the aggregate is the interpreter's)."""
    check(source_input(render(spec), timed=True), [O2, compiled(2)])


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("opt_level", [1, 2])
def test_registry_apps_bitwise_equivalent(app, opt_level):
    configs = [compiled(1)] if opt_level == 1 else [O2, compiled(2)]
    check(app_input(app), configs)


#: Registry-app inputs small enough to run timed on the interpreter.
TIMED_ARGS = {
    "xsbench": ("-g", "128", "-n", "4", "-l", "32", "-s", "1"),
    "rsbench": ("-p", "8", "-n", "2", "-l", "16", "-s", "1"),
    "amgmk": ("-n", "256", "-i", "1", "-s", "1"),
    "stream": ("-n", "512", "-r", "1", "-s", "1"),
    "stencil": ("-n", "256", "-i", "1", "-s", "1"),
    "pagerank": ("-n", "256", "-d", "4", "-i", "1", "-s", "1"),
}


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("opt_level", [1, 2])
def test_registry_apps_timed_traces_equivalent(app, opt_level):
    """Timed runs of every registry app: the compiled backend in every
    safety mode (one cached executable) reproduces the interpreter's
    cycles and per-team traces bitwise (two warps per team, so per-warp
    streams interleave)."""
    inp = app_input(app, TIMED_ARGS[app], timed=True, device=SMALL_DEVICE)
    configs = [compiled(opt_level, mode, cache=True) for mode in SAFETY_MODES]
    check(inp, ([] if opt_level == 1 else [O2]) + configs)


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
    inp = source_input(DIVERGENT, timed=True, thread_limit=64)
    spied, counted = {}, {}
    for cfg in (O2, compiled(2)):
        calls["n"] = 0
        spied[cfg] = run(inp, cfg)
        counted[cfg.backend] = calls["n"]
    runs = check(inp, [O2, compiled(2)], runs=spied)
    divergent = sum(t[4] for t in runs[O2].traces)  # divergent_instructions
    assert divergent > 150
    assert counted["interp"] == divergent
    assert counted["compiled"] < divergent // 10


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_equivalence_under_recovered_fault_plan(backend):
    """A transient worker death is recovered by retry on both backends,
    and the recovered run matches the interpreter's fault-free run."""
    spec = LaunchSpec(
        [[str(i)] for i in range(4)], thread_limit=32, collect_timing=False
    )
    inp = source_input(render((24, 3, 1, True, False, True, True)), spec=spec)
    cfg = Config(
        backend=backend,
        safety_mode="unchecked",
        plan="worker_death:times=1:seed=0",
        devices=2,
    )
    runs = check(inp, [cfg])
    assert runs[ORACLE].stats["faults_injected"] == 0
    assert runs[cfg].stats["faults_injected"] == 1
    assert runs[cfg].stats["faults_recovered"] == 1
