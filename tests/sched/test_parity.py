"""Acceptance: a ≥32-instance campaign through a 4-device Scheduler is
instance-for-instance identical to a one-device Scheduler run, and every
device in the pool does nonzero work."""

import pytest

from repro.host.launch import LaunchSpec
from tests.oracle import Config, Input, check
from tests.util import SMALL_DEVICE

HEAP = 1536 * 1024
CAMPAIGN = [
    ["-n", "512", "-d", "8", "-i", "1", "-s", str(s)] for s in range(1, 33)
]


@pytest.fixture(scope="module")
def program():
    from repro.apps import pagerank

    return pagerank.build_program()


class TestSchedulerParity:
    def test_four_device_campaign_matches_single_device(self, program):
        four = Config(devices=4)
        inp = Input(
            program,
            spec=LaunchSpec(CAMPAIGN, thread_limit=32),
            device=SMALL_DEVICE,
            heap_bytes=HEAP,
        )
        runs = check(inp, [four])
        assert len(runs[four].obs.instances) == 32
        assert all(o[2] == 0 for o in runs[four].obs.instances)

        # every device did real work, and the stats say so
        summary = runs[four].stats
        labels = set(runs[four].labels)
        assert len(labels) == 4
        assert set(summary["devices"]) == labels
        devices = summary["devices"].values()
        for dev in devices:
            assert dev["instances"] > 0
            assert dev["batches"] > 0
            assert dev["busy_cycles"] > 0
            assert 0.0 < dev["utilization"] <= 1.0
        assert summary["instances_completed"] == 32
        assert summary["makespan_cycles"] <= sum(d["busy_cycles"] for d in devices)
        assert summary["jobs_completed"] == 1
