"""Shared fixtures for the repro.serve suite.

Everything runs the real stack — a :class:`~repro.serve.harness.
ServerThread` hosting a :class:`~repro.serve.CampaignServer` over real
sockets — against the pagerank app at the standard small test workload.
"""

from __future__ import annotations

import pytest

from repro.host.launch import LaunchSpec
from repro.serve.client import Client
from repro.serve.harness import ServerThread

#: The standard cheap pagerank workload used across the test tree.
SMALL = ["-n", "256", "-d", "8", "-i", "1"]
#: Heap sized for SMALL (matches the sched/faults suites).
HEAP = 1536 * 1024
LOADER_OPTS = {"heap_bytes": HEAP}


def small_spec(n: int = 4, **kw) -> LaunchSpec:
    """A LaunchSpec of ``n`` identical SMALL pagerank instances."""
    kw.setdefault("thread_limit", 32)
    return LaunchSpec([list(SMALL) for _ in range(n)], **kw)


@pytest.fixture
def server():
    with ServerThread(devices=2) as st:
        yield st


@pytest.fixture
def client(server):
    with Client(server.address) as c:
        yield c
