"""Batch sizing by OOM bisection for programs whose per-instance heap is
fixed (``fixedfp``) or runtime-dependent (pagerank): the scheduler
discovers how many instances fit a device heap by running out of it,
as the paper does for Page-Rank."""

import pytest

from repro.errors import DeviceOutOfMemory, JobFailed
from repro.frontend.dsl import Program, dgpu
from repro.frontend.dtypes import i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from repro.host.results import Observables
from repro.sched import DevicePool, Scheduler
from tests.util import SMALL_DEVICE


def fixed_footprint_program() -> Program:
    """Each instance mallocs exactly 16000 doubles -> 128000 B."""
    prog = Program("fixedfp")

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:
        buf = malloc_f64(16000)  # noqa: F821 - device libc
        for i in dgpu.parallel_range(64):
            buf[i] = float(i)
        return 0

    return prog


def lines(n):
    return [["-s", str(s)] for s in range(n)]


def spec(n):
    return LaunchSpec(lines(n), thread_limit=32)


def make_scheduler(devices=1, **kw):
    return Scheduler(DevicePool(devices, config=SMALL_DEVICE), **kw)


@pytest.fixture(scope="module")
def program():
    return fixed_footprint_program()


def run_campaign(program, heap, n):
    sched = make_scheduler()
    fut = sched.submit(program, spec(n), loader_opts={"heap_bytes": heap})
    return sched, fut.result()


class TestAcceptance:
    def test_outputs_identical_either_way(self, program):
        """Bisected batches produce the observables one launch does."""
        n = 24
        _, split = run_campaign(program, 1 << 20, n)  # 6 fit per launch
        _, whole = run_campaign(program, 4 << 20, n)
        assert split.all_succeeded and whole.all_succeeded
        assert split.oom_splits >= 1, "fixture must actually hit the memory wall"
        assert whole.oom_splits == 0
        assert Observables.of(split).instances == Observables.of(whole).instances


class TestSeeding:
    def test_doomed_job_fails_before_launch(self, program):
        """A single instance that cannot fit the heap fails the job:
        OOM at batch size one is terminal."""
        sched = make_scheduler()
        fut = sched.submit(
            program, spec(2), loader_opts={"heap_bytes": 1 << 14}
        )
        with pytest.raises((DeviceOutOfMemory, JobFailed)):
            fut.result()

    def test_heap_oom_names_the_heap_not_invented_counts(self, program):
        """The device heap's allocator traps without its counts: the error
        states the heap that ran out and claims no request or free size."""
        loader = Loader(program, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 14)
        with pytest.raises(DeviceOutOfMemory) as exc_info:
            loader.run(spec(1))
        err = exc_info.value
        assert str(err) == (
            "device out of memory: the 16384-byte device heap ran out"
        )
        assert (err.requested, err.free, err.capacity) == (None, None, 1 << 14)

    def test_unbounded_program_falls_back_to_bisection(self):
        """Runtime-dependent allocation sizes (pagerank) are sized by
        bisection like any other program."""
        from repro.apps import pagerank

        heap = 1536 * 1024
        sched = make_scheduler(chunk_size=8)
        workload = [["-n", "4096", "-d", "8", "-i", "1", "-s", str(s)] for s in range(8)]
        fut = sched.submit(
            pagerank.build_program(),
            LaunchSpec(workload, thread_limit=32),
            loader_opts={"heap_bytes": heap},
        )
        result = fut.result()
        assert result.all_succeeded
        assert result.oom_splits >= 1
