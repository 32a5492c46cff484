"""Ring RPC transport under ensemble execution: per-instance output must
stay correctly keyed even when all calls funnel through one ring, and an
injected reply fault must do over the ring what it does over the direct
transport."""

import time

import pytest

from repro.frontend import Program, i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import LaunchSpec
from repro.runtime.rpc_device import DeviceRing
from tests.oracle import ORACLE, Config, Input, check, preserved, run
from tests.util import SMALL_DEVICE


def chatty():
    prog = Program("ring_ens")

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:
        me = atoi(argv[1])  # noqa: F821
        printf("from instance %ld\n", me)  # noqa: F821
        return me

    return prog


def test_ensemble_over_ring_matches_direct():
    lines = [[str(i)] for i in (7, 8, 9, 10)]
    spec = LaunchSpec(lines, thread_limit=32)
    runs = check(
        Input(chatty(), spec=spec, heap_bytes=1 << 20),
        [Config(transport="ring"), Config("compiled", transport="ring")],
    )
    instances = runs[ORACLE].obs.instances
    assert [code for _, _, code, _, _ in instances] == [7, 8, 9, 10]
    assert [out for _, _, _, out, _ in instances] == [
        f"from instance {7 + i}\n" for i in range(4)
    ]


def replying():
    """Prints its argument and returns printf's reply next to it, so a
    corrupted reply shows in the exit code."""
    prog = Program("ring_reply")

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:
        me = atoi(argv[1])  # noqa: F821
        n = printf("from instance %ld\n", me)  # noqa: F821
        return me * 100 + n

    return prog


#: One plan per kind fired at the ``rpc.reply`` point.
REPLY_FAULTS = [
    "rpc_drop:rate=1.0:times=1",
    "rpc_dup:service=printf:times=1",
    "rpc_timeout:instance=1:times=1",
    "transport_corrupt:byte=0:times=1",
]


@pytest.mark.parametrize("plan", REPLY_FAULTS, ids=lambda p: p.split(":")[0])
def test_transport_row_holds_under_reply_faults(plan):
    """The oracle's ``transport`` row with the same reply fault armed on
    both sides: every field it keeps must match."""
    inp = Input(
        replying(), spec=LaunchSpec([["7"], ["8"]], thread_limit=32),
        heap_bytes=1 << 20,
    )
    direct, ring = Config(plan=plan), Config(plan=plan, transport="ring")
    assert preserved(direct, ring) == preserved(ORACLE, Config(transport="ring"))
    a, b = run(inp, direct), run(inp, ring)
    for name in preserved(direct, ring):
        assert a.field(name) == b.field(name), name


def test_lane_is_known_before_the_host_services_the_request(monkeypatch):
    """A request published but not yet claimed by its caller must still
    be serviced as that caller's: delaying the caller after publishing
    gives the host thread every chance to drain first."""
    enqueue = DeviceRing.enqueue

    def slow_enqueue(self, service_id, args):
        slot = enqueue(self, service_id, args)
        time.sleep(0.005)
        return slot

    monkeypatch.setattr(DeviceRing, "enqueue", slow_enqueue)
    loader = EnsembleLoader(
        chatty(), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20,
        rpc_transport="ring",
    )
    res = loader.run_ensemble(
        LaunchSpec([["7"], ["8"]], thread_limit=32, collect_timing=False)
    )
    assert [o.stdout for o in res.instances] == [
        "from instance 7\n", "from instance 8\n"
    ]
    loader.close()
