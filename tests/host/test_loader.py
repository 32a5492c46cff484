"""Base single-instance loader (§2.2)."""

import pytest

from repro.errors import LoaderError
from repro.faults import InjectedRPCFailure
from repro.frontend import Program, i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from tests.util import SMALL_DEVICE


def adder_program():
    prog = Program("adder")

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:
        total = 0
        i = 1
        while i < argc:
            total += atoi(argv[i])  # noqa: F821
            i += 1
        printf("total=%ld\n", total)  # noqa: F821
        return total

    return prog


@pytest.fixture(scope="module")
def loader():
    return Loader(adder_program(), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)


def test_run_returns_exit_code(loader):
    assert loader.run(
        LaunchSpec([["10", "20", "12"]], collect_timing=False)
    ).exit_code == 42


def test_run_captures_stdout(loader):
    res = loader.run(LaunchSpec([["1", "2"]], collect_timing=False))
    assert res.stdout == "total=3\n"


def test_no_args(loader):
    assert loader.run(LaunchSpec([[]], collect_timing=False)).exit_code == 0


def test_timing_collected_by_default(loader):
    res = loader.run(["1"])
    assert res.cycles is not None and res.cycles > 0
    assert res.timing.summary()["blocks"] == 1


def test_repeated_runs_do_not_leak_device_memory(loader):
    used_before = loader.device.allocator.used_bytes
    for _ in range(5):
        loader.run(LaunchSpec([["1"]], collect_timing=False))
    assert loader.device.allocator.used_bytes == used_before


def test_device_state_is_reset_between_runs(loader):
    a = loader.run(LaunchSpec([["5"]], collect_timing=False)).exit_code
    b = loader.run(LaunchSpec([["5"]], collect_timing=False)).exit_code
    assert a == b == 5


def test_close_releases_resources():
    loader = Loader(adder_program(), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
    base = loader.device.allocator.live_allocations
    loader.close()
    assert loader.device.allocator.live_allocations == base - 2  # image + heap


def test_accepts_precompiled_module():
    prog = adder_program()
    module = prog.compile()
    loader = Loader(module, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
    assert loader.run(LaunchSpec([["3", "4"]], collect_timing=False)).exit_code == 7


@pytest.mark.parametrize(
    "opts",
    [{"heap_bytes": -1}, {"heap_bytes": 0}, {"heap_bytes": "x"},
     {"stack_bytes": -8}],
    ids=["negative-heap", "empty-heap", "text-heap", "negative-stack"],
)
def test_bad_memory_sizes_rejected(opts):
    with pytest.raises(LoaderError, match=next(iter(opts))):
        Loader(adder_program(), GPUDevice(SMALL_DEVICE), **opts)


def test_run_arms_the_specs_fault_plan():
    """A single run honours its spec's fault plan, like an ensemble."""
    loader = Loader(adder_program(), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
    spec = LaunchSpec([["1"]], fault_plan="rpc_drop:rate=1.0")
    with pytest.raises(InjectedRPCFailure, match="service=printf"):
        loader.run(spec)
