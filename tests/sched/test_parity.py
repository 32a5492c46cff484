"""Acceptance: a ≥32-instance campaign through a 4-device Scheduler is
instance-for-instance identical to a one-device Scheduler run, and every
device in the pool does nonzero work."""

import pytest

from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.sched import DevicePool, Scheduler
from tests.util import SMALL_DEVICE

HEAP = 1536 * 1024
CAMPAIGN = [
    ["-n", "512", "-d", "8", "-i", "1", "-s", str(s)] for s in range(1, 33)
]


def outcome_key(o):
    return (o.index, tuple(o.args), o.exit_code, o.stdout)


@pytest.fixture(scope="module")
def program():
    from repro.apps import pagerank

    return pagerank.build_program()


class TestSchedulerParity:
    def test_four_device_campaign_matches_single_device(self, program):
        pool = DevicePool(4, config=SMALL_DEVICE)
        sched = Scheduler(pool)
        sched_result = sched.run_campaign(
            program,
            LaunchSpec(CAMPAIGN, thread_limit=32),
            loader_opts={"heap_bytes": HEAP},
        )

        single = Scheduler(
            DevicePool([GPUDevice(SMALL_DEVICE)])
        ).run_campaign(
            program,
            LaunchSpec(CAMPAIGN, thread_limit=32),
            loader_opts={"heap_bytes": HEAP},
        )

        assert len(sched_result.instances) == 32
        assert sorted(map(outcome_key, sched_result.instances)) == sorted(
            map(outcome_key, single.instances)
        )
        assert sched_result.all_succeeded and single.all_succeeded

        # every device did real work, and the stats say so
        stats = sched.stats
        assert set(stats.per_device) == set(pool.labels)
        assert len(stats.per_device) == 4
        for dev in stats.per_device.values():
            assert dev.instances > 0
            assert dev.batches > 0
            assert dev.busy_cycles > 0
        assert stats.instances_completed == 32
        util = stats.utilization()
        assert all(0.0 < u <= 1.0 for u in util.values())
        assert stats.makespan_cycles <= stats.total_busy_cycles
        summary = stats.summary()
        assert summary["jobs_completed"] == 1
        assert set(summary["devices"]) == set(pool.labels)
