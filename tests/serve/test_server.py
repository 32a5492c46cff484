"""Integration tests for the campaign server over real sockets.

The acceptance bar: a campaign routed through ``repro.serve`` is
*bitwise identical* to the same campaign run through the one-shot
scheduler path — including under a recovered fault plan — while the
server adds admission control, deterministic fair share, streaming
events, drain semantics, and metrics on top.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import wire
from repro.apps.registry import get_app
from repro.config import DEFAULT_DEVICE
from repro.errors import ServeError
from repro.faults import FaultPlan
from repro.host.results import Observables
from repro.sched import DevicePool, JobState, Scheduler
from repro.serve.client import Client
from repro.serve.harness import ServerThread
from repro.serve.server import CampaignServer, ServeConfig

from tests.oracle import Config, Input, check
from tests.serve.conftest import LOADER_OPTS, small_spec


def one_shot(spec, *, loader_opts=LOADER_OPTS):
    """The direct scheduler path the server must match bitwise."""
    pool = DevicePool(2, config=DEFAULT_DEVICE)
    sched = Scheduler(pool, job_scoped_faults=True)
    try:
        return sched.run_campaign(
            get_app("pagerank").build_program(), spec, loader_opts=loader_opts
        )
    finally:
        pool.close()


class TestSingleCampaign:
    def test_served_result_bitwise_matches_one_shot(self):
        """Through the oracle: served vs the direct scheduler."""
        inp = Input(
            get_app("pagerank").build_program(),
            spec=small_spec(4),
            device=DEFAULT_DEVICE,
            heap_bytes=LOADER_OPTS["heap_bytes"],
        )
        served = Config(served=True)
        runs = check(inp, [served])
        assert all(o[2] == 0 for o in runs[served].obs.instances)

    def test_stream_yields_states_then_one_terminal(self, client):
        job = client.submit("pagerank", small_spec(4), loader_opts=LOADER_OPTS)
        events = list(job.stream())
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "result"
        assert kinds.count("result") == 1
        assert "state" in kinds[:-1]
        assert all(e["job_id"] == job.job_id for e in events)
        assert job.ticket.state is JobState.COMPLETED

    def test_status_round_trip(self, client):
        job = client.submit("pagerank", small_spec(2), loader_opts=LOADER_OPTS)
        job.result()
        ticket = client.status(job.ticket)
        assert ticket.state is JobState.COMPLETED
        assert ticket.tenant == "anonymous"

    def test_result_job_id_is_the_server_id(self, client):
        first = client.submit("pagerank", small_spec(2), loader_opts=LOADER_OPTS)
        first.result()
        second = client.submit(
            "pagerank", small_spec(2), loader_opts=LOADER_OPTS
        )
        result = second.result()
        assert result.job_id == second.job_id == first.job_id + 1


class TestFaultIsolation:
    def test_recovered_fault_plan_bitwise_identical(self, client):
        plan = FaultPlan.parse("worker_death:times=1", seed=7)
        spec = small_spec(4, fault_plan=plan)
        served = client.submit(
            "pagerank", spec, tenant="chaotic", loader_opts=LOADER_OPTS
        ).result()
        direct = one_shot(spec)
        assert Observables.of(served) == Observables.of(direct)
        assert served.retries == direct.retries >= 1
        assert not served.degraded

    def test_one_tenants_chaos_does_not_leak(self, client):
        plan = FaultPlan.parse("worker_death:rate=1.0", seed=0)
        chaotic = client.submit(
            "pagerank",
            small_spec(2, fault_plan=plan),
            tenant="chaotic",
            retries=1,
            loader_opts=LOADER_OPTS,
        )
        clean = client.submit(
            "pagerank", small_spec(2), tenant="clean", loader_opts=LOADER_OPTS
        )
        chaotic_result = chaotic.result()
        clean_result = clean.result()
        # The chaotic tenant degrades; the clean tenant is untouched.
        assert chaotic_result.degraded
        assert clean_result.all_succeeded
        assert not clean_result.fault_reports
        direct = one_shot(small_spec(2))
        assert Observables.of(clean_result) == Observables.of(direct)

    @pytest.mark.parametrize("opts", [{"heap_bytes": -1}, {"pack": "x"}])
    def test_bad_loader_option_fails_only_its_job(self, server, opts):
        """A tenant's invalid loader option fails that tenant's job; the
        pump keeps serving every other tenant.  The client's socket
        timeout bounds the wait for the good job."""
        with Client(server.address, timeout=30.0) as client:
            bad = client.submit("pagerank", small_spec(1), tenant="bad",
                                loader_opts=opts)
            good = client.submit("pagerank", small_spec(2), tenant="good",
                                 loader_opts=LOADER_OPTS)
            with pytest.raises(ServeError) as exc:
                bad.result()
            assert exc.value.code == wire.E_JOB_FAILED
            events = list(good.stream())
            assert events[-1]["event"] == "result"
            assert good.result().all_succeeded


class TestMultiTenant:
    def test_three_tenants_two_devices_deterministic(self):
        """Three concurrent tenants, two devices: every tenant's result is
        bitwise the one-shot result, twice over (run-to-run determinism)."""
        spec = small_spec(4)
        direct = Observables.of(one_shot(spec))
        runs = []
        for _ in range(2):
            with ServerThread(devices=2) as st:
                clients = [Client(st.address) for _ in range(3)]
                try:
                    jobs = [
                        c.submit(
                            "pagerank",
                            spec,
                            tenant=t,
                            loader_opts=LOADER_OPTS,
                        )
                        for c, t in zip(clients, ["alice", "bob", "carol"])
                    ]
                    results = [j.result() for j in jobs]
                finally:
                    for c in clients:
                        c.close()
            assert all(Observables.of(r) == direct for r in results)
            runs.append([(r.job_id, r.total_cycles) for r in results])
        assert runs[0] == runs[1]


def run_async(coro):
    return asyncio.run(coro)


def make_server(**kw) -> CampaignServer:
    kw.setdefault("devices", 2)
    return CampaignServer(**kw)


class _FakeWriter:
    """Stand-in for an asyncio StreamWriter in pump-less unit tests."""

    def write(self, data):
        pass

    async def drain(self):
        pass


class TestFairShare:
    def submit(self, server, tenant, priority=0):
        sub = {
            "op": "submit",
            "submission": {
                "kind": "Submission",
                "schema_version": wire.WIRE_SCHEMA_VERSION,
                "app": "pagerank",
                "spec": small_spec(1).to_wire(),
                "tenant": tenant,
                "priority": priority,
                "loader_opts": dict(LOADER_OPTS),
            },
        }
        return run_async(server._op_submit(sub, _FakeWriter(), None))

    def admitted_tenants(self, server):
        return [
            server._entries[job_id].submission.tenant
            for job_id in server._active
        ]

    def test_stride_interleaves_tenants(self):
        server = make_server(config=ServeConfig(max_active=64))
        try:
            for _ in range(3):
                self.submit(server, "alice")
            for _ in range(3):
                self.submit(server, "bob")
            server._admit()
            assert self.admitted_tenants(server) == [
                "alice", "bob", "alice", "bob", "alice", "bob",
            ]
        finally:
            server.scheduler.pool.close()

    def test_priority_weights_the_share(self):
        server = make_server(config=ServeConfig(max_active=64))
        try:
            for _ in range(2):
                self.submit(server, "low", priority=0)
            for _ in range(4):
                self.submit(server, "high", priority=1)
            server._admit()
            order = self.admitted_tenants(server)
            # priority 1 halves the stride: high gets two admissions per
            # low's one, deterministically.
            assert order == ["high", "low", "high", "high", "low", "high"]
        finally:
            server.scheduler.pool.close()

    def test_within_tenant_priority_then_fifo(self):
        server = make_server(config=ServeConfig(max_active=64))
        try:
            a = self.submit(server, "solo", priority=0)
            b = self.submit(server, "solo", priority=5)
            c = self.submit(server, "solo", priority=5)
            server._admit()
            order = [
                server._entries[j].ticket.job_id for j in server._active
            ]
            assert order == [
                b["ticket"]["job_id"],
                c["ticket"]["job_id"],
                a["ticket"]["job_id"],
            ]
        finally:
            server.scheduler.pool.close()


class TestAdmissionControl:
    def test_global_queue_cap(self):
        server = make_server(
            config=ServeConfig(max_pending=2, max_pending_per_tenant=16)
        )
        try:
            fair = TestFairShare()
            fair.submit(server, "a")
            fair.submit(server, "b")
            with pytest.raises(wire.WireError) as exc:
                fair.submit(server, "c")
            assert exc.value.code == wire.E_ADMISSION
        finally:
            server.scheduler.pool.close()

    def test_per_tenant_queue_cap(self):
        server = make_server(
            config=ServeConfig(max_pending=64, max_pending_per_tenant=1)
        )
        try:
            fair = TestFairShare()
            fair.submit(server, "greedy")
            with pytest.raises(wire.WireError) as exc:
                fair.submit(server, "greedy")
            assert exc.value.code == wire.E_ADMISSION
            # Other tenants are unaffected by one tenant's full queue.
            fair.submit(server, "modest")
        finally:
            server.scheduler.pool.close()

    def test_unknown_app_stable_code(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit("no_such_app", small_spec(1))
        assert exc.value.code == wire.E_UNKNOWN_APP
        assert "pagerank" in str(exc.value)  # names the known registry

    def test_unknown_job_stable_code(self, client):
        with pytest.raises(ServeError) as exc:
            client.status(12345)
        assert exc.value.code == wire.E_UNKNOWN_JOB

    def test_unknown_op_stable_code(self, client):
        with pytest.raises(ServeError) as exc:
            client._request("frobnicate")
        assert exc.value.code == wire.E_UNKNOWN_OP


class TestDrain:
    def test_drain_completes_inflight_and_rejects_new(self, server):
        with Client(server.address) as submitter, Client(
            server.address
        ) as drainer:
            job = submitter.submit(
                "pagerank", small_spec(4), loader_opts=LOADER_OPTS
            )
            completed = drainer.drain()
            assert completed >= 1
            # In-flight work finished; its (buffered) result still streams.
            result = job.result()
            assert result.all_succeeded
            # New submissions are refused with the stable code.
            with pytest.raises(ServeError) as exc:
                submitter.submit(
                    "pagerank", small_spec(1), loader_opts=LOADER_OPTS
                )
            assert exc.value.code == wire.E_DRAINING

    def test_drain_idempotent(self, server):
        with Client(server.address) as c:
            assert c.drain() == 0
            assert c.drain() == 0


class TestCancel:
    def test_cancel_queued_job(self):
        server = make_server(config=ServeConfig(max_active=4))
        try:
            fair = TestFairShare()
            reply = fair.submit(server, "t")
            job_id = reply["ticket"]["job_id"]
            cancel = run_async(
                server._op_cancel(
                    {"op": "cancel", "job_id": job_id}, _FakeWriter(), None
                )
            )
            assert cancel["cancelled"] is True
            entry = server._entries[job_id]
            assert entry.phase == "done"
            assert entry.ticket.state is JobState.CANCELLED
        finally:
            server.scheduler.pool.close()

    def test_cancel_finished_job_is_false(self, client):
        job = client.submit("pagerank", small_spec(2), loader_opts=LOADER_OPTS)
        job.result()
        assert client.cancel(job.ticket) is False


class TestMetricsOp:
    def test_json_metrics(self, client):
        client.submit(
            "pagerank", small_spec(2), tenant="alice", loader_opts=LOADER_OPTS
        ).result()
        reply = client.metrics()
        names = {m["name"] for m in reply["metrics"]}
        assert "serve.submissions" in names
        assert "sched.jobs.completed" in names
        server = reply["server"]
        assert server["tenants"] == ["alice"]
        assert server["devices"] == ["pool0", "pool1"]
        assert set(server["utilization"]) == {"pool0", "pool1"}

    def test_prometheus_metrics(self, client):
        client.submit("pagerank", small_spec(2), loader_opts=LOADER_OPTS).result()
        text = client.metrics("prom")["text"]
        assert '# TYPE serve_submissions counter' in text
        assert 'serve_submissions{tenant="anonymous"} 1.0' in text

    def test_unknown_format_stable_code(self, client):
        with pytest.raises(ServeError) as exc:
            client.metrics("xml")
        assert exc.value.code == wire.E_BAD_REQUEST


class TestWatch:
    def test_late_watcher_gets_terminal_event(self, server):
        with Client(server.address) as a:
            job = a.submit("pagerank", small_spec(2), loader_opts=LOADER_OPTS)
            result = job.result()
        with Client(server.address) as b:
            watched = b.watch(job.job_id)
            replay = watched.result()
            assert Observables.of(replay) == Observables.of(result)

    def test_second_connection_watches_live_job(self, server):
        with Client(server.address) as a, Client(server.address) as b:
            job = a.submit("pagerank", small_spec(4), loader_opts=LOADER_OPTS)
            watcher = b.watch(job.ticket)
            ours = job.result()
            theirs = watcher.result()
            assert Observables.of(ours) == Observables.of(theirs)
