"""Server-side caching: one compile serves every tenant, and the warm
state survives drain/restart through the disk tier."""

from __future__ import annotations

from repro.host.results import Observables
from repro.serve.client import Client
from repro.serve.harness import ServerThread

from tests.serve.conftest import LOADER_OPTS, small_spec


def _cache_section(client):
    return client.metrics()["server"]["cache"]


class TestCrossTenantSharing:
    def test_two_tenants_share_one_compile(self):
        """Identical specs from two tenants: exactly one ``cache.miss``,
        then a hit — and bitwise-identical results."""
        with ServerThread(devices=1) as st:
            with Client(st.address) as client:
                first = client.submit(
                    "pagerank",
                    small_spec(2),
                    tenant="alice",
                    loader_opts=LOADER_OPTS,
                ).result()
                mid = _cache_section(client)
                assert mid["misses"] == 1
                assert mid["hits_memory"] == 0

                second = client.submit(
                    "pagerank",
                    small_spec(2),
                    tenant="bob",
                    loader_opts=LOADER_OPTS,
                ).result()
                after = _cache_section(client)
                assert after["misses"] == 1  # bob never compiled
                assert after["hits_memory"] == 1
                assert Observables.of(second) == Observables.of(first)

    def test_metrics_mirror_cache_counters(self):
        with ServerThread(devices=1) as st:
            with Client(st.address) as client:
                client.submit(
                    "pagerank", small_spec(2), loader_opts=LOADER_OPTS
                ).result()
                reply = client.metrics()
                names = {m["name"] for m in reply["metrics"]}
                assert "cache.misses" in names
                assert reply["server"]["cache"]["entries_memory"] == 1

    def test_no_cache_server_reports_none(self):
        with ServerThread(devices=1, cache=False) as st:
            with Client(st.address) as client:
                result = client.submit(
                    "pagerank", small_spec(2), loader_opts=LOADER_OPTS
                ).result()
                assert result.all_succeeded
                assert _cache_section(client) is None


class TestRestartSurvival:
    def test_cache_survives_drain_and_restart(self, tmp_path):
        """The disk tier carries the warm state across a full server
        drain + restart: the new process never recompiles."""
        cache_dir = str(tmp_path / "serve-cache")
        with ServerThread(devices=1, cache_dir=cache_dir) as st:
            with Client(st.address) as client:
                first = client.submit(
                    "pagerank", small_spec(2), loader_opts=LOADER_OPTS
                ).result()
                stats = _cache_section(client)
                assert stats["misses"] == 1
                assert stats["stores_disk"] == 1
                assert client.drain() == 1  # the one job, fully retired

        with ServerThread(devices=1, cache_dir=cache_dir) as st:
            with Client(st.address) as client:
                second = client.submit(
                    "pagerank", small_spec(2), loader_opts=LOADER_OPTS
                ).result()
                stats = _cache_section(client)
                assert stats["misses"] == 0
                assert stats["hits_disk"] == 1
                assert Observables.of(second) == Observables.of(first)
