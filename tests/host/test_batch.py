"""Batched campaigns: running past the device-memory wall on a one-device
Scheduler (one shard per job, OOM-bisected until every instance ran)."""

import pytest

from repro.apps import pagerank
from repro.errors import DeviceOutOfMemory, SchedulerError
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.sched import DevicePool, Scheduler
from tests.util import SMALL_DEVICE

#: ~0.3 MiB per instance against a 1.5 MiB heap -> 4 fit, 5 do not.
WORKLOAD = ["-n", "4096", "-d", "8", "-i", "1"]
HEAP = 1536 * 1024


@pytest.fixture(scope="module")
def program():
    return pagerank.build_program()


def campaign(program, n, heap=HEAP, **sched_kw):
    lines = [WORKLOAD + ["-s", str(s)] for s in range(1, n + 1)]
    spec = LaunchSpec(lines, thread_limit=32)
    sched = Scheduler(DevicePool([GPUDevice(SMALL_DEVICE)]), **sched_kw)
    return sched.run_campaign(program, spec, loader_opts={"heap_bytes": heap})


@pytest.fixture(scope="module")
def oversized(program):
    return campaign(program, 10)


class TestBatching:
    def test_oversized_campaign_completes(self, oversized):
        result = oversized
        assert len(result.instances) == 10
        assert result.all_succeeded
        assert result.oom_splits >= 1  # 10 at once had to shrink
        assert max(b.size for b in result.batches) <= 5
        assert sum(b.size for b in result.batches) == 10

    def test_bisection_ceiling_only_moves_on_oom(self, oversized):
        # 10 OOMs -> halves of 5; 5 OOMs -> batches of 2.  A short
        # remainder that ends a split (instance 4, instance 9) must not
        # ratchet the ceiling down to 1 for the rest of the job.
        batches = [(b.first_instance, b.size) for b in oversized.batches]
        assert len(batches) <= 6, batches
        split_ends = {5, 10}
        for first, size in batches:
            assert size >= 2 or first + size in split_ends, batches

    def test_instance_indices_global(self, program):
        result = campaign(program, 6)
        assert [o.index for o in result.instances] == list(range(6))
        # per-instance stdout still attached
        assert "PageRank total rank" in result.instances[5].stdout

    def test_fits_in_one_batch_when_possible(self, program):
        result = campaign(program, 2)
        assert len(result.batches) == 1
        assert result.oom_splits == 0

    def test_max_batch_cap_respected(self, program):
        result = campaign(program, 5, max_batch=2)
        assert max(b.size for b in result.batches) <= 2
        assert len(result.batches) == 3

    def test_total_cycles_aggregates(self, program):
        result = campaign(program, 6)
        assert result.total_cycles is not None
        assert result.total_cycles == pytest.approx(
            sum(b.cycles for b in result.batches)
        )

    def test_single_instance_too_big_raises(self, program):
        with pytest.raises(DeviceOutOfMemory):
            campaign(program, 3, heap=128 * 1024)

    def test_empty_campaign_rejected(self, program):
        sched = Scheduler(DevicePool([GPUDevice(SMALL_DEVICE)]))
        with pytest.raises(SchedulerError):
            sched.submit(program, LaunchSpec([], thread_limit=32))
