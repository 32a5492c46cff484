"""Static ensemble packing: the compiler's StaticFootprint seeds the
scheduler's batch sizes, replacing runtime OOM bisection for programs
whose per-instance heap is statically bounded."""

import pytest

from repro.errors import DeviceOutOfMemory, JobFailed
from repro.frontend.dsl import Program, dgpu
from repro.frontend.dtypes import i64, ptr_ptr
from repro.host.launch import LaunchSpec
from repro.host.results import Observables
from repro.sched import DevicePool, Scheduler
from tests.util import SMALL_DEVICE

#: Each instance mallocs exactly 16000 doubles -> 128000 B (256-aligned),
#: a statically bounded footprint; 8 instances fit a 1 MiB heap.
PER_INSTANCE = 16000 * 8


def fixed_footprint_program() -> Program:
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


def make_scheduler(heap, *, static_packing, devices=1, **kw):
    pool = DevicePool(devices, config=SMALL_DEVICE)
    return Scheduler(pool, static_packing=static_packing, **kw)


@pytest.fixture(scope="module")
def program():
    return fixed_footprint_program()


def run_campaign(program, heap, n, *, static_packing):
    sched = make_scheduler(heap, static_packing=static_packing)
    fut = sched.submit(program, spec(n), loader_opts={"heap_bytes": heap})
    return sched, fut.result()


class TestAcceptance:
    def test_static_packing_beats_bisection(self, program):
        """With static packing, a bounded-footprint campaign performs
        strictly fewer OOM-bisection retries than without — the acceptance
        criterion for the interprocedural layer paying rent at run time."""
        heap = 1 << 20  # 16 instances fit; launch 24
        n = 24
        sched_off, off = run_campaign(program, heap, n, static_packing=False)
        sched_on, on = run_campaign(program, heap, n, static_packing=True)

        assert off.all_succeeded and on.all_succeeded
        assert len(off.instances) == len(on.instances) == n
        assert off.oom_splits >= 1, "fixture must actually hit the memory wall"
        assert on.oom_splits < off.oom_splits
        assert sched_on.metrics.value("analysis.packing.static_hits") > 0
        assert sched_on.metrics.value("analysis.packing.static_seeds") > 0

    def test_outputs_identical_either_way(self, program):
        heap = 1 << 20
        _, off = run_campaign(program, heap, 8, static_packing=False)
        _, on = run_campaign(program, heap, 8, static_packing=True)
        assert Observables.of(on).instances == Observables.of(off).instances


class TestSeeding:
    def test_no_oom_when_cap_respected(self, program):
        """Every launched batch stays within the static cap."""
        heap = 1 << 20
        cap = heap // PER_INSTANCE
        sched, result = run_campaign(program, heap, 24, static_packing=True)
        assert all(b.size <= cap for b in result.batches)

    def test_doomed_job_fails_before_launch(self, program):
        """A single instance that cannot fit fails fast, without bisection."""
        sched = make_scheduler(1 << 14, static_packing=True)
        fut = sched.submit(
            program, spec(2), loader_opts={"heap_bytes": 1 << 14}
        )
        with pytest.raises((DeviceOutOfMemory, JobFailed)):
            fut.result()
        # the failure was decided statically: nothing was ever launched
        assert sched.stats.oom_splits == 0

    def test_unbounded_program_falls_back_to_bisection(self):
        """Runtime-dependent allocation sizes (pagerank) must keep the
        classic dynamic path: a miss is counted, no cap is seeded."""
        from repro.apps import pagerank

        heap = 1536 * 1024
        sched = make_scheduler(heap, static_packing=True, chunk_size=8)
        workload = [["-n", "4096", "-d", "8", "-i", "1", "-s", str(s)] for s in range(8)]
        fut = sched.submit(
            pagerank.build_program(),
            LaunchSpec(workload, thread_limit=32),
            loader_opts={"heap_bytes": heap},
        )
        result = fut.result()
        assert result.all_succeeded
        assert result.oom_splits >= 1  # bisection still does the work
        assert sched.metrics.value("analysis.packing.static_misses") > 0
        assert sched.metrics.value("analysis.packing.static_hits") == 0
