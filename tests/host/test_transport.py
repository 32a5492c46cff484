"""Ring RPC transport end to end: a device program whose printf/file calls
travel through the ring buffer and a real host service thread.  Ring vs
direct equivalence is the oracle's ``transport`` axis."""

import pytest

from repro.frontend import Program, dgpu, i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from repro.errors import LoaderError
from tests.oracle import ORACLE, Config, Input, check
from tests.util import SMALL_DEVICE


def chatty_program():
    prog = Program("ring_chatty")

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:
        n = atoi(argv[1])  # noqa: F821
        i = 0
        while i < n:
            printf("line %ld of %ld, x=%g\n", i, n, float(i) * 0.5)  # noqa: F821
            i += 1
        return n

    return prog


@pytest.fixture(scope="module")
def ring_loader():
    return Loader(
        chatty_program(),
        GPUDevice(SMALL_DEVICE),
        heap_bytes=1 << 20,
        rpc_transport="ring",
    )


def test_ring_transport_output_matches_direct():
    configs = [Config(transport="ring"), Config("compiled", transport="ring")]
    for timed in (False, True):
        inp = Input(chatty_program(), ("5",), heap_bytes=1 << 20, timed=timed)
        ((_, _, code, stdout, _),) = check(inp, configs)[ORACLE].obs.instances
        assert code == 5
        assert "line 4 of 5, x=2\n" in stdout


def test_ring_transport_many_calls(ring_loader):
    """More calls than ring slots: the service thread must keep draining."""
    res = ring_loader.run(LaunchSpec([["200"]], collect_timing=False))
    assert res.exit_code == 200
    assert res.stdout.count("\n") == 200


def test_ring_transport_repeated_runs(ring_loader):
    for _ in range(3):
        assert ring_loader.run(LaunchSpec([["2"]], collect_timing=False)).exit_code == 2


def test_ring_resources_released(ring_loader):
    used = ring_loader.device.allocator.used_bytes
    ring_loader.run(LaunchSpec([["1"]], collect_timing=False))
    assert ring_loader.device.allocator.used_bytes == used


def test_unknown_transport_rejected():
    with pytest.raises(LoaderError, match="rpc_transport"):
        Loader(chatty_program(), GPUDevice(SMALL_DEVICE), rpc_transport="carrier-pigeon")
