"""Property: the -O2 interprocedural stage preserves observable behavior.

Hypothesis-generated programs (:mod:`tests.oracle`) run through the
interpreter at -O1 and -O2, with and without a deterministic fault plan
armed; the oracle holds -O2 to the instances and trap text, and -O2
never adds a barrier.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.faults import FaultInjector
from repro.faults.injector import InjectedRPCFailure
from repro.gpu.device import GPUDevice
from repro.host.loader import Loader
from tests.oracle import ORACLE, Config, check, program_specs, render, source_input
from tests.util import SMALL_DEVICE, count_barriers

O2 = Config(opt_level=2)


@settings(max_examples=20, deadline=None)
@given(program_specs)
def test_o2_matches_o1_bitwise(spec):
    runs = check(source_input(render(spec)), [O2])
    assert count_barriers(runs[O2].module) <= count_barriers(runs[ORACLE].module)


@settings(max_examples=6, deadline=None)
@given(program_specs)
def test_o2_matches_o1_under_fault_plan(spec):
    """Equivalence must also hold with the chaos injector armed: a
    deterministic timing fault perturbs the schedule, not the answer."""
    plan = "slow_team:team=0:factor=3"
    check(
        source_input(render(spec), timed=True),
        [Config(plan=plan), Config(opt_level=2, plan=plan)],
    )


def test_barrier_heavy_example_loses_barriers_but_not_output():
    """Deterministic anchor for the property: a program with provably
    redundant barriers must actually lose at least one at -O2."""
    runs = check(source_input(render((32, 3, 1, True, True, True, True))), [O2])
    b1, b2 = (count_barriers(runs[c].module) for c in (ORACLE, O2))
    assert b1 >= 1 and b2 < b1


def test_rpc_fault_plan_equivalent_across_opt_levels():
    """An injected RPC drop hits the same (preserved) printf at both
    levels, so the degraded behavior — a transient launch failure — is
    also identical."""
    inp = source_input(render((16, 2, 0, True, False, False, True)))
    texts = []
    for opt_level in (1, 2):
        loader = Loader(
            inp.program, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20,
            opt_level=opt_level,
        )
        loader.device.faults = FaultInjector("rpc_drop:times=1")
        with pytest.raises(InjectedRPCFailure) as exc:
            loader.run([], thread_limit=32, collect_timing=True)
        texts.append(str(exc.value))
    # same service, same instance: the RPC sequence was preserved by -O2
    assert texts[0] == texts[1]
