"""Tests for the blessed client library (:mod:`repro.serve.client`).

The server-behaviour integration lives in test_server.py; this file pins
the client-side surface: the Scheduler.submit mirror, event buffering
across interleaved jobs, and error surfacing as :class:`ServeError`.
"""

from __future__ import annotations

import pytest

from repro import wire
from repro.errors import ServeError
from repro.host.results import Observables
from repro.sched import JobState
from repro.serve.client import Client, RemoteJob
from repro.serve.protocol import Submission

from tests.serve.conftest import LOADER_OPTS, small_spec


class TestSubmitMirror:
    def test_submit_returns_remote_job_with_ticket(self, client):
        job = client.submit(
            "pagerank",
            small_spec(2),
            tenant="alice",
            priority=1,
            loader_opts=LOADER_OPTS,
        )
        assert isinstance(job, RemoteJob)
        assert job.ticket.tenant == "alice"
        assert job.ticket.spec_hash.startswith("sha256:")

    def test_submit_accepts_prebuilt_submission(self, client):
        sub = Submission(
            app="pagerank",
            spec=small_spec(2),
            tenant="bob",
            loader_opts=dict(LOADER_OPTS),
        )
        job = client.submit(sub)
        assert job.result().all_succeeded
        assert job.ticket.tenant == "bob"

    def test_submit_without_spec_rejected_client_side(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit("pagerank")
        assert exc.value.code == wire.E_BAD_REQUEST

    def test_spec_hash_matches_scheduler_side_hash(self, client):
        spec = small_spec(2)
        job = client.submit("pagerank", spec, loader_opts=LOADER_OPTS)
        assert job.ticket.spec_hash == wire.spec_hash(spec.to_wire())


class TestEventPlumbing:
    def test_interleaved_jobs_buffer_each_others_events(self, client):
        a = client.submit("pagerank", small_spec(2), loader_opts=LOADER_OPTS)
        b = client.submit("pagerank", small_spec(2), loader_opts=LOADER_OPTS)
        # Resolve in reverse submission order: a's events must be buffered
        # while b streams, then replayed for a.
        result_b = b.result()
        result_a = a.result()
        assert Observables.of(result_a) == Observables.of(result_b)
        assert a.ticket.state is JobState.COMPLETED

    def test_result_is_idempotent(self, client):
        job = client.submit("pagerank", small_spec(2), loader_opts=LOADER_OPTS)
        first = job.result()
        second = job.result()
        assert Observables.of(first) == Observables.of(second)

    def test_stream_after_result_replays_terminal(self, client):
        job = client.submit("pagerank", small_spec(2), loader_opts=LOADER_OPTS)
        job.result()
        events = list(job.stream())
        assert [e["event"] for e in events] == ["result"]

    def test_done_via_status(self, client):
        job = client.submit("pagerank", small_spec(2), loader_opts=LOADER_OPTS)
        job.result()
        assert job.done()


class TestErrorSurface:
    def test_server_error_carries_stable_code(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit("no_such_app", small_spec(1))
        assert exc.value.code == wire.E_UNKNOWN_APP

    def test_greeting_is_exposed(self, client):
        assert client.greeting["hello"] == "repro.serve"
        assert client.greeting["schema_version"] == wire.WIRE_SCHEMA_VERSION

    def test_closed_server_raises(self, server):
        client = Client(server.address)
        server.stop()
        with pytest.raises((ServeError, OSError)):
            client.ping()
        client.close()
