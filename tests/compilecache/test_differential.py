"""Differential suite: a cache-served executable is indistinguishable
from a cold compile.

The backend-equivalence contract across the cache boundary, run through
the differential oracle (:mod:`tests.oracle`): every registry app, both
execution backends, -O1 and -O2, cycle counts, trap text, and a campaign
under a recovered fault plan.  The cache axis keeps every field.
"""

from __future__ import annotations

import pytest

from repro.apps.registry import APPS
from repro.compilecache import ExecutableCache
from repro.host.launch import LaunchSpec
from repro.runtime.backend import available_backends
from tests.faults.conftest import echo_program
from tests.oracle import ORACLE, Config, Input, app_input, check, source_input


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("opt_level", [1, 2])
def test_cached_matches_cold_all_backends(app, opt_level):
    """Cold twin vs cache-served executable, every backend: the cache
    must never change a single observable."""
    cache = ExecutableCache()  # memory tier only; both backends share it
    configs = [] if opt_level == 1 else [Config(opt_level=2)]
    configs += [
        Config(backend=b, opt_level=opt_level, safety_mode="unchecked", cache=True)
        for b in available_backends()
    ]
    check(app_input(app), configs, cache=cache)
    stats = cache.stats()
    assert stats["misses"] == 1  # one compile serves every backend
    assert stats["hits_memory"] == len(available_backends()) - 1


@pytest.mark.parametrize("app", ["stencil", "pagerank"])
def test_cached_cycles_match_cold(app):
    """With the timing collector armed the cycle count must survive the
    cache round-trip exactly."""
    runs = check(
        app_input(app, timed=True),
        [Config(opt_level=2), Config(opt_level=2, cache=True)],
    )
    assert runs[Config(opt_level=2, cache=True)].obs.cycles


TRAP = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    assert argc > 99, "cache trap twin"
    return 0
"""


def test_cached_trap_text_matches_cold():
    """A trapping program traps identically out of the cache."""
    runs = check(source_input(TRAP, thread_limit=8), [Config(cache=True)])
    assert "cache trap twin" in runs[ORACLE].obs.trap


def test_cached_campaign_survives_recovered_fault_plan():
    """A worker death recovered by retry, served from a warm cache, is
    bitwise identical to the cold fault-free campaign."""
    spec = LaunchSpec(
        [[str(i)] for i in range(4)], thread_limit=32, collect_timing=False
    )
    cache = ExecutableCache()
    warm = Config(cache=True, devices=2)
    faulted = Config(cache=True, devices=2, plan="worker_death:times=1:seed=0")
    # A fault-free cached campaign warms the cache; the faulted campaign
    # is then served entirely from it.
    runs = check(Input(echo_program(), spec=spec), [warm, faulted], cache=cache)
    assert runs[ORACLE].stats["faults_injected"] == 0
    assert runs[faulted].stats["faults_injected"] == 1
    assert runs[faulted].stats["faults_recovered"] == 1
    assert cache.stats()["misses"] == 1  # no recompiles, fault or not
