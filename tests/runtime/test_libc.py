"""Device libc: string/number parsing and the device heap, executed on the
simulated GPU through real DSL programs."""

import pytest

from repro.errors import DeviceOutOfMemory
from repro.frontend import Program, i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.loader import Loader
from repro.host.launch import LaunchSpec
from tests.util import SMALL_DEVICE

# one program exercising the whole libc surface, driven by argv
_prog = Program("libc_harness")


@_prog.main
def main(argc: i64, argv: ptr_ptr) -> i64:
    mode = atoi(argv[1])  # noqa: F821
    if mode == 1:  # strlen
        return strlen(argv[2])  # noqa: F821
    if mode == 2:  # strcmp sign
        c = strcmp(argv[2], argv[3])  # noqa: F821
        if c < 0:
            return -1
        if c > 0:
            return 1
        return 0
    if mode == 3:  # atoi
        return atoi(argv[2])  # noqa: F821
    if mode == 4:  # atof scaled to integer
        return int(atof(argv[2]) * 1000.0 + 0.5)  # noqa: F821
    if mode == 5:  # strncmp
        return strncmp(argv[2], argv[3], atoi(argv[4]))  # noqa: F821
    if mode == 6:  # malloc round-trip
        p = malloc_f64(16)  # noqa: F821
        p[7] = 12.5
        q = malloc_i64(4)  # noqa: F821
        q[0] = 30
        return int(p[7] * 2.0) + q[0]
    return -99


@pytest.fixture(scope="module")
def loader():
    return Loader(_prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)


def run(loader, *args):
    res = loader.run(
        LaunchSpec([[str(a) for a in args]], thread_limit=32, collect_timing=False)
    )
    return res.exit_code


class TestStrings:
    def test_strlen(self, loader):
        assert run(loader, 1, "hello") == 5

    def test_strlen_empty(self, loader):
        assert run(loader, 1, "") == 0

    def test_strcmp_equal(self, loader):
        assert run(loader, 2, "abc", "abc") == 0

    def test_strcmp_less(self, loader):
        assert run(loader, 2, "abc", "abd") == -1

    def test_strcmp_greater(self, loader):
        assert run(loader, 2, "b", "a") == 1

    def test_strcmp_prefix(self, loader):
        assert run(loader, 2, "ab", "abc") == -1

    def test_strncmp_bounded(self, loader):
        assert run(loader, 5, "abcX", "abcY", 3) == 0


class TestNumbers:
    def test_atoi_positive(self, loader):
        assert run(loader, 3, "12345") == 12345

    def test_atoi_negative(self, loader):
        assert run(loader, 3, "-42") == -42

    def test_atoi_leading_whitespace_and_plus(self, loader):
        assert run(loader, 3, "  +7") == 7

    def test_atoi_stops_at_nondigit(self, loader):
        assert run(loader, 3, "12ab") == 12

    def test_atof_decimal(self, loader):
        assert run(loader, 4, "2.5") == 2500

    def test_atof_exponent(self, loader):
        assert run(loader, 4, "1.5e2") == 150000

    def test_atof_negative_exponent(self, loader):
        assert run(loader, 4, "2500e-3") == 2500

    def test_atof_negative(self, loader):
        # int() truncation on device is toward zero; -1.25*1000+0.5 -> -1249
        assert run(loader, 4, "-1.25") == -1249


class TestHeap:
    def test_malloc_roundtrip(self, loader):
        assert run(loader, 6) == 55  # 12.5*2 + 30

    def test_heap_exhaustion_raises_oom(self):
        prog = Program("oom_app")

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            p = malloc_f64(1000000)  # noqa: F821 - 8MB > 1MB heap
            p[0] = 1.0
            return 0

        small = Loader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
        with pytest.raises(DeviceOutOfMemory):
            small.run(LaunchSpec([[]], collect_timing=False))

    def test_allocations_are_disjoint_across_instances(self):
        """Two ensemble instances malloc concurrently; atomic bump must give
        them disjoint regions (values don't clobber)."""
        from repro.host.ensemble_loader import EnsembleLoader

        prog = Program("disjoint")

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            me = atoi(argv[1])  # noqa: F821
            p = malloc_i64(64)  # noqa: F821
            i = 0
            while i < 64:
                p[i] = me
                i += 1
            # verify nothing overwrote us
            i = 0
            while i < 64:
                if p[i] != me:
                    return 1
                i += 1
            return 0

        loader = EnsembleLoader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
        res = loader.run_ensemble(LaunchSpec(
            [["7"], ["13"], ["21"]], thread_limit=32, collect_timing=False
        ))
        assert res.return_codes == [0, 0, 0]
