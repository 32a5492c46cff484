"""Differential chaos: a run under :data:`~repro.faults.NO_FAULTS` and a
run under a *recovered* fault plan must produce bitwise-identical
per-instance outputs, exit codes and fault kinds.

Recovery machinery (retry, redistribution, bisection) exists precisely so
faults do not change results; these tests pin that equivalence through
the differential oracle (:mod:`tests.oracle`) for three plans whose
faults are all recoverable, across the chaos seeds ``make chaos`` sweeps.
"""

import pytest

from repro.host.launch import LaunchSpec
from tests.oracle import ORACLE, Config, Input, check

SPEC = LaunchSpec(
    [[str(i)] for i in range(8)], thread_limit=32, collect_timing=False
)

#: Plans whose faults the stack fully recovers from: a transient worker
#: death, injected allocation pressure (bisected away), and a dropped RPC
#: reply (retried).  ``{seed}`` keeps each chaos leg distinct.
RECOVERED_PLANS = [
    "worker_death:times=1:seed={seed}",
    "oom:times=1:seed={seed}",
    "rpc_drop:rate=1.0:times=1:seed={seed}",
]


def check_plan(prog, plan: str) -> dict:
    """The recovered run's scheduler stats, once the oracle agrees."""
    cfg = Config(plan=plan, devices=2)
    runs = check(Input(prog, spec=SPEC), [cfg])
    assert runs[ORACLE].stats["faults_injected"] == 0
    return runs[cfg].stats


@pytest.mark.parametrize("plan", RECOVERED_PLANS)
def test_recovered_fault_runs_are_bitwise_identical(
    plan, echo_prog, chaos_seed
):
    stats = check_plan(echo_prog, plan.format(seed=chaos_seed))
    # The fault genuinely fired and was genuinely recovered — this was a
    # differential test, not two identical no-op runs.
    assert stats["faults_injected"] == 1
    assert stats["faults_recovered"] == 1
    assert stats["faults_isolated"] == 0


def test_all_three_plans_in_one_campaign(echo_prog, chaos_seed):
    combined = ";".join(p.format(seed=chaos_seed) for p in RECOVERED_PLANS)
    stats = check_plan(echo_prog, combined)
    assert stats["faults_injected"] == 3
    assert stats["faults_recovered"] == 3
