"""The ensemble-as-a-service front door: an asyncio campaign server.

One-shot CLI runs waste the ensemble machinery between invocations: every
campaign re-compiles its application, re-warms a private
:class:`~repro.sched.DevicePool`, and tears it all down again.
:class:`CampaignServer` keeps one pool and one
:class:`~repro.sched.Scheduler` alive across *many* concurrent clients —
the paper's "keep the GPU saturated" argument applied to the service
boundary — and adds the layers a shared device needs:

* **Admission control** — per-tenant and global queue-depth limits;
  refusals carry the stable :data:`~repro.wire.E_ADMISSION` code.
* **Fair share with priorities** — a deterministic stride scheduler
  picks which tenant's submission is admitted next; a submission's
  ``priority`` raises its tenant's share (see docs/serve.md §Fair
  share).  Given the same arrival order the admission order is
  bit-for-bit reproducible.
* **Tenant-scoped chaos** — the scheduler runs in
  ``job_scoped_faults`` mode, so a fault plan carried by one tenant's
  spec can never observe another tenant's launches.  The scheduler's
  quarantine/retry/deadline machinery is the server's SLO layer: an
  injected fault degrades the one campaign, never the service.
* **Streaming results** — submitting connections receive ``state``
  events and exactly one terminal ``result`` / ``failed`` /
  ``cancelled`` event per job; ``watch`` subscribes other connections.
* **Graceful drain** — a ``drain`` request (or :meth:`drain`) stops
  admissions (new submits fail with :data:`~repro.wire.E_DRAINING`),
  completes everything already accepted, then resolves.
* **Metrics** — the ``metrics`` op exposes the shared
  :class:`~repro.obs.MetricsRegistry` (scheduler, devices, faults, and
  ``serve.*`` series) as JSON or Prometheus text.

The server interleaves exactly one scheduler step (one dispatched shard)
with socket I/O, so the deterministic simulated-time core is untouched:
ensembling stays single-threaded and reproducible while the asyncio edge
multiplexes clients.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass

from repro import wire
from repro.errors import ReproError, SchedulerError
from repro.obs import Observability
from repro.obs.export import metrics_json, metrics_prometheus
from repro.sched import DevicePool, JobState, JobTicket, Scheduler
from repro.serve import protocol
from repro.serve.protocol import Submission

#: How many terminal jobs keep their full result payload for late
#: ``watch``/``status`` calls before being evicted oldest-first.
RESULT_HISTORY = 256


@dataclass
class ServeConfig:
    """Admission-control knobs; scheduling knobs live on the Scheduler."""

    #: Submissions queued (accepted, not yet admitted) across all tenants.
    max_pending: int = 64
    #: Queued submissions any single tenant may hold.
    max_pending_per_tenant: int = 16
    #: Jobs admitted into the shared scheduler at once.  Fair-share order
    #: decides *admission*; once admitted, the scheduler interleaves
    #: shards in deterministic simulated time.
    max_active: int = 4


class _Tenant:
    """One fair-share stream: a priority-ordered queue plus stride state."""

    __slots__ = ("name", "queue", "passes")

    def __init__(self, name: str):
        self.name = name
        #: Entries ordered by (-priority, seq): higher priority first,
        #: FIFO within a priority level.
        self.queue: list["_Entry"] = []
        #: Stride pass value; the tenant with the smallest pass is
        #: admitted next, then advances by 1/(1+priority) — higher
        #: priority means smaller strides, hence more admissions.
        self.passes = 0.0

    def push(self, entry: "_Entry") -> None:
        self.queue.append(entry)
        self.queue.sort(key=lambda e: (-e.submission.priority, e.seq))


class _Entry:
    """Server-side lifecycle record of one submission."""

    __slots__ = (
        "seq",
        "submission",
        "ticket",
        "phase",  # queued -> active -> done
        "future",
        "subscribers",
        "terminal_event",
        "last_state",
    )

    def __init__(self, seq: int, submission: Submission, ticket: JobTicket):
        self.seq = seq
        self.submission = submission
        self.ticket = ticket
        self.phase = "queued"
        self.future = None
        self.subscribers: set = set()
        self.terminal_event: dict | None = None
        self.last_state = JobState.PENDING


class CampaignServer:
    """Long-running campaign service over one shared scheduler."""

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        *,
        devices: int = 2,
        device_config=None,
        apps=None,
        config: ServeConfig | None = None,
        obs: Observability | None = None,
        max_batch: int | None = None,
        default_retries: int = 2,
        cache=None,
        cache_dir: str | None = None,
    ):
        self.obs = obs if obs is not None else Observability()
        #: Cross-tenant compile-once cache: identical specs from any
        #: tenant share one executable, keyed by content (never by
        #: tenant).  ``cache=None`` builds the default in-memory cache
        #: (plus a disk tier when ``cache_dir`` is given, which is what
        #: lets warm state survive drain/restart); ``cache=False``
        #: disables caching; an :class:`~repro.compilecache.
        #: ExecutableCache` instance is used as-is.
        if cache is False:
            self.cache = None
        elif cache is None or cache is True:
            from repro.compilecache import ExecutableCache

            self.cache = ExecutableCache(cache_dir)
        else:
            self.cache = cache
        if self.cache is not None:
            self.cache.attach_metrics(self.obs.metrics)
        if scheduler is None:
            from repro.config import DEFAULT_DEVICE

            pool = DevicePool(
                devices, config=device_config or DEFAULT_DEVICE
            )
            scheduler = Scheduler(
                pool,
                max_batch=max_batch,
                default_retries=default_retries,
                obs=self.obs,
                job_scoped_faults=True,
            )
        if not scheduler.job_scoped_faults:
            raise SchedulerError(
                "CampaignServer needs a Scheduler(job_scoped_faults=True): "
                "tenant fault plans must not leak across campaigns"
            )
        if self.cache is not None:
            scheduler.pool.attach_cache(self.cache)
        self.scheduler = scheduler
        self.config = config or ServeConfig()
        if apps is None:
            from repro.apps.registry import APPS

            apps = APPS
        self._apps = apps
        self._programs: dict[str, object] = {}

        self._tenants: dict[str, _Tenant] = {}
        self._entries: dict[int, _Entry] = {}
        self._active: list[int] = []
        self._done: deque[int] = deque()
        self._next_id = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._wake = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self._pump_task: asyncio.Task | None = None
        self._writers: set = set()
        self.address: object = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        path: str | None = None,
    ):
        """Bind (TCP ``host:port`` or unix-socket ``path``) and start the
        pump; returns the bound address (``(host, port)`` or the path)."""
        if self._server is not None:
            raise SchedulerError("server already started")
        if path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle, path=path, limit=protocol.MAX_LINE_BYTES
            )
            self.address = path
        else:
            self._server = await asyncio.start_server(
                self._handle, host, port, limit=protocol.MAX_LINE_BYTES
            )
            sock = self._server.sockets[0]
            self.address = sock.getsockname()[:2]
        self._pump_task = asyncio.create_task(self._pump())
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def drain(self) -> int:
        """Refuse new submissions, finish everything accepted, return the
        number of jobs completed over the server's lifetime."""
        self._draining = True
        self._wake.set()
        await self._drained.wait()
        return len(self._done)

    async def close(self) -> None:
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        self.scheduler.pool.close()

    # ------------------------------------------------------------------
    # the pump: fair-share admission + one scheduler step at a time
    # ------------------------------------------------------------------
    def _pending_total(self) -> int:
        return sum(len(t.queue) for t in self._tenants.values())

    def _admit(self) -> None:
        while len(self._active) < self.config.max_active:
            candidates = [t for t in self._tenants.values() if t.queue]
            if not candidates:
                return
            # Deterministic stride pick: smallest pass, tenant name as
            # the total tie-break.
            tenant = min(candidates, key=lambda t: (t.passes, t.name))
            entry = tenant.queue.pop(0)
            tenant.passes += 1.0 / (1.0 + entry.submission.priority)
            self._activate(entry)

    def _activate(self, entry: _Entry) -> None:
        sub = entry.submission
        try:
            program = self._executable(sub)
            entry.future = self.scheduler.submit(
                program,
                sub.spec,
                retries=sub.retries,
                step_budget=sub.step_budget,
                loader_opts=sub.scheduler_loader_opts(),
                tenant=sub.tenant,
            )
        except Exception as exc:  # fail this submission, never the pump
            entry.phase = "done"
            entry.ticket.state = JobState.FAILED
            entry.terminal_event = protocol.event_msg(
                "failed",
                entry.ticket.job_id,
                error={"code": wire.E_JOB_FAILED, "message": str(exc)},
                error_type=type(exc).__name__,
            )
            self._finish(entry)
            return
        entry.phase = "active"
        self._active.append(entry.ticket.job_id)
        self._count("admitted", tenant=sub.tenant)

    def _reap(self) -> None:
        """Publish state transitions; retire terminal jobs."""
        for job_id in list(self._active):
            entry = self._entries[job_id]
            state = entry.future.state
            if state is JobState.RUNNING and entry.last_state is not state:
                entry.last_state = state
                entry.ticket.state = state
                self._emit(
                    entry,
                    protocol.event_msg("state", job_id, state=state.value),
                )
            if not state.terminal:
                continue
            entry.ticket.state = state
            if state is JobState.COMPLETED:
                result = entry.future.result()
                payload = result.to_wire()
                # The scheduler numbers jobs internally; the server's id
                # is the one the client holds.
                payload["job_id"] = job_id
                entry.terminal_event = protocol.event_msg(
                    "result", job_id, result=payload
                )
                self._count("completed", tenant=entry.submission.tenant)
            elif state is JobState.CANCELLED:
                entry.terminal_event = protocol.event_msg(
                    "cancelled", job_id
                )
                self._count("cancelled", tenant=entry.submission.tenant)
            else:
                error = entry.future.exception()
                entry.terminal_event = protocol.event_msg(
                    "failed",
                    job_id,
                    error={
                        "code": wire.E_JOB_FAILED,
                        "message": str(error),
                    },
                    error_type=type(error).__name__,
                )
                self._count("failed", tenant=entry.submission.tenant)
            self.scheduler.release(entry.future.ticket)
            entry.future = None
            entry.phase = "done"
            self._active.remove(job_id)
            self._finish(entry)

    def _finish(self, entry: _Entry) -> None:
        """Record a terminal entry and bound the retained history."""
        self._done.append(entry.ticket.job_id)
        self._emit(entry, entry.terminal_event)
        while len(self._done) > RESULT_HISTORY:
            old = self._done.popleft()
            self._entries.pop(old, None)

    async def _pump(self) -> None:
        while True:
            self._admit()
            self._publish_gauges()
            if self._active:
                stepped = self.scheduler.step()
                self._reap()
                await self._flush_events()
                if stepped or self._active:
                    # Yield to the event loop between shards so client
                    # I/O interleaves with the simulation.
                    await asyncio.sleep(0)
                continue
            await self._flush_events()
            if self._draining and not self._pending_total():
                self._drained.set()
            self._wake.clear()
            await self._wake.wait()

    def _publish_gauges(self) -> None:
        metrics = self.obs.metrics
        metrics.gauge("serve.pending").set(float(self._pending_total()))
        metrics.gauge("serve.active").set(float(len(self._active)))
        metrics.gauge("serve.draining").set(1.0 if self._draining else 0.0)

    def _count(self, name: str, **labels) -> None:
        self.obs.metrics.counter(f"serve.{name}", **labels).inc()

    # ------------------------------------------------------------------
    # event fan-out
    # ------------------------------------------------------------------
    def _emit(self, entry: _Entry, msg: dict) -> None:
        for writer in list(entry.subscribers):
            self._outbox(writer).append(msg)

    def _outbox(self, writer) -> list:
        box = getattr(writer, "_serve_outbox", None)
        if box is None:
            box = []
            writer._serve_outbox = box
        return box

    async def _flush_events(self) -> None:
        for writer in list(self._writers):
            box = getattr(writer, "_serve_outbox", None)
            if not box:
                continue
            try:
                for msg in box:
                    writer.write(protocol.encode(msg))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                self._forget_writer(writer)
            box.clear()

    def _forget_writer(self, writer) -> None:
        self._writers.discard(writer)
        for entry in self._entries.values():
            entry.subscribers.discard(writer)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _send(self, writer, msg: dict) -> None:
        writer.write(protocol.encode(msg))
        await writer.drain()

    async def _handle(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            await self._send(
                writer,
                {
                    "hello": "repro.serve",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "schema_version": wire.WIRE_SCHEMA_VERSION,
                },
            )
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer,
                        protocol.error_reply(
                            wire.E_BAD_REQUEST,
                            f"line exceeds {protocol.MAX_LINE_BYTES} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                await self._dispatch_line(line, writer)
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            self._forget_writer(writer)
            writer.close()

    async def _dispatch_line(self, line: bytes, writer) -> None:
        seq = None
        try:
            msg = protocol.decode(line)
            seq = msg.get("seq")
            op = msg.get("op")
            if not isinstance(op, str) or op not in protocol.OPS:
                known = ", ".join(protocol.OPS)
                raise wire.WireError(
                    f"unknown op {op!r} (known: {known})",
                    code=wire.E_UNKNOWN_OP,
                )
            reply = await getattr(self, f"_op_{op}")(msg, writer, seq)
        except wire.WireError as exc:
            self._count("rejected", code=exc.code)
            reply = protocol.error_reply(exc.code, str(exc), seq)
        except ReproError as exc:
            self._count("rejected", code=wire.E_BAD_REQUEST)
            reply = protocol.error_reply(wire.E_BAD_REQUEST, str(exc), seq)
        except Exception as exc:  # noqa: BLE001 - the wire must answer
            self._count("rejected", code=wire.E_INTERNAL)
            reply = protocol.error_reply(
                wire.E_INTERNAL, f"{type(exc).__name__}: {exc}", seq
            )
        if reply is not None:
            await self._send(writer, reply)

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    async def _op_ping(self, msg, writer, seq):
        return protocol.ok_reply(
            "ping", seq, protocol=protocol.PROTOCOL_VERSION
        )

    async def _op_submit(self, msg, writer, seq):
        if self._draining:
            raise wire.WireError(
                "server is draining; no new submissions",
                code=wire.E_DRAINING,
            )
        sub = Submission.from_wire(
            wire.get_field(msg, "submission", dict, kind="submit")
        )
        if sub.app not in self._apps:
            known = ", ".join(sorted(self._apps))
            raise wire.WireError(
                f"unknown app {sub.app!r} (known: {known})",
                code=wire.E_UNKNOWN_APP,
            )
        if not sub.spec.resolve_instances():
            raise wire.WireError(
                "submission needs at least one instance",
                code=wire.E_BAD_REQUEST,
            )
        if self._pending_total() >= self.config.max_pending:
            raise wire.WireError(
                f"server queue is full ({self.config.max_pending} pending)",
                code=wire.E_ADMISSION,
            )
        tenant = self._tenants.setdefault(sub.tenant, _Tenant(sub.tenant))
        if len(tenant.queue) >= self.config.max_pending_per_tenant:
            raise wire.WireError(
                f"tenant {sub.tenant!r} queue is full "
                f"({self.config.max_pending_per_tenant} pending)",
                code=wire.E_ADMISSION,
            )
        job_id = self._next_id
        self._next_id += 1
        ticket = JobTicket(
            job_id=job_id,
            tenant=sub.tenant,
            spec_hash=wire.spec_hash(sub.spec.to_wire()),
        )
        entry = _Entry(job_id, sub, ticket)
        entry.subscribers.add(writer)
        self._entries[job_id] = entry
        tenant.push(entry)
        self._count("submissions", tenant=sub.tenant)
        self._wake.set()
        return protocol.ok_reply("submit", seq, ticket=ticket.to_wire())

    def _entry_of(self, msg) -> _Entry:
        job_id = wire.get_field(msg, "job_id", int, kind="request")
        entry = self._entries.get(job_id)
        if entry is None:
            raise wire.WireError(
                f"unknown job {job_id}", code=wire.E_UNKNOWN_JOB
            )
        return entry

    async def _op_status(self, msg, writer, seq):
        entry = self._entry_of(msg)
        return protocol.ok_reply(
            "status",
            seq,
            ticket=entry.ticket.to_wire(),
            phase=entry.phase,
        )

    async def _op_watch(self, msg, writer, seq):
        entry = self._entry_of(msg)
        if entry.phase == "done":
            # Late subscriber: replay the terminal event after the reply.
            self._outbox(writer).append(entry.terminal_event)
            self._wake.set()
        else:
            entry.subscribers.add(writer)
        return protocol.ok_reply("watch", seq, phase=entry.phase)

    async def _op_cancel(self, msg, writer, seq):
        entry = self._entry_of(msg)
        cancelled = False
        if entry.phase == "queued":
            tenant = self._tenants[entry.submission.tenant]
            tenant.queue.remove(entry)
            entry.phase = "done"
            entry.ticket.state = JobState.CANCELLED
            entry.terminal_event = protocol.event_msg(
                "cancelled", entry.ticket.job_id
            )
            self._count("cancelled", tenant=entry.submission.tenant)
            self._finish(entry)
            cancelled = True
        elif entry.phase == "active":
            cancelled = entry.future.cancel()
            # A successful scheduler-side cancel is retired by _reap.
            if cancelled:
                self._wake.set()
        return protocol.ok_reply("cancel", seq, cancelled=cancelled)

    async def _op_metrics(self, msg, writer, seq):
        fmt = wire.get_field(msg, "format", str, "json", kind="metrics")
        self._publish_gauges()
        server = {
            "pending": self._pending_total(),
            "active": len(self._active),
            "completed": len(self._done),
            "draining": self._draining,
            "tenants": sorted(self._tenants),
            "devices": self.scheduler.pool.labels,
            "utilization": self.scheduler.stats.utilization(),
            "cache": None if self.cache is None else self.cache.stats(),
        }
        if fmt == "json":
            return protocol.ok_reply(
                "metrics",
                seq,
                metrics=metrics_json(self.obs.metrics)["metrics"],
                server=server,
            )
        if fmt == "prom":
            return protocol.ok_reply(
                "metrics",
                seq,
                text=metrics_prometheus(self.obs.metrics),
                server=server,
            )
        raise wire.WireError(
            f"unknown metrics format {fmt!r} (json or prom)",
            code=wire.E_BAD_REQUEST,
        )

    async def _op_drain(self, msg, writer, seq):
        completed = await self.drain()
        return protocol.ok_reply("drain", seq, completed=completed)

    # ------------------------------------------------------------------
    # programs
    # ------------------------------------------------------------------
    def _executable(self, sub: Submission):
        """Resolve a submission to what the scheduler should run.

        With the cache enabled, the submission is compiled (or looked
        up) through the shared :class:`~repro.compilecache.
        ExecutableCache`, keyed purely by content — app source, codegen
        options, opt level — so identical specs from *different* tenants
        share one compile.  The finalized module (stable identity from
        the cache's memory tier) is handed to the scheduler; per-device
        loaders recognize the executable stamp and skip the compile
        chain entirely.
        """
        program = self._program(sub.app)
        if self.cache is None:
            return program
        opts = sub.loader_opts
        team_local = bool(opts.get("team_local_globals", False))
        budget = None
        if team_local:
            workers = self.scheduler.pool.workers
            budget = workers[0].device.config.shared_mem_per_block
        entry = self.cache.get_or_build(
            program,
            team_local_globals=team_local,
            shared_mem_budget=budget,
            opt_level=opts.get("opt_level", 1),
            tracer=self.obs.tracer,
            metrics=self.obs.metrics,
        )
        return entry.module

    def _program(self, name: str):
        """Compile-once app resolution: one live program object per app
        name for the server's lifetime, so every device's loader cache
        (keyed by program identity) hits across submissions."""
        program = self._programs.get(name)
        if program is None:
            entry = self._apps[name]
            build = getattr(entry, "build_program", None)
            if build is not None:
                program = build()
            elif callable(entry):
                program = entry()
            else:
                program = entry
            self._programs[name] = program
        return program


__all__ = ["CampaignServer", "ServeConfig", "RESULT_HISTORY"]
