"""The multi-device ensemble scheduler.

One device cannot saturate a campaign any more than one instance can
saturate a device (§3 of the paper, one level up): :class:`Scheduler`
owns a :class:`~repro.sched.pool.DevicePool` and drives every device
concurrently in *simulated time*.  Each worker advances its own clock by
the simulated cycles of the launches it runs; the scheduler always
dispatches the next shard to the device whose clock is furthest behind —
exactly how a concurrent pool behaves, but deterministic and reproducible
because the whole stack is a simulator.

Mechanics:

* **Sharding** — a submitted job's instances are cut into contiguous
  chunks (roughly ``2×`` the pool size, so every device gets work and
  fast devices can take more) and spread round-robin across per-worker
  queues.  A one-device pool has nobody to steal from, so it gets the
  whole job as one shard: the enhanced loader's single launch, bisected
  only if it does not fit.
* **Work stealing** — a worker whose queue is empty steals the oldest
  chunk from the longest queue.
* **Batch coalescing + OOM bisection** — chunk sizes are capped by a
  per-worker-per-job :class:`_BisectionPolicy` that halves on every OOM
  and never grows back, so a size that OOMed on a device is never tried
  there again (the heap is reset identically between launches).
  :class:`~repro.errors.DeviceOutOfMemory` at batch size one is terminal.
* **Retries** — a chunk that dies to a device fault (trap, RPC failure)
  is requeued with exponential backoff, at most ``retries`` times per
  chunk; exhaustion fails the job with
  :class:`~repro.errors.RetriesExhausted`.
  :class:`~repro.errors.EnsembleSafetyError` from the race gate is
  terminal immediately.
* **Deadlines** — a job may carry an interpreter-step budget; every
  launch is clamped to the remaining budget and overrunning it fails the
  job with :class:`~repro.errors.DeadlineExceeded`.
* **Observability** — every decision publishes into the
  :class:`~repro.obs.metrics.MetricsRegistry` of the scheduler's
  :class:`~repro.obs.Observability` bundle;
  :class:`~repro.sched.stats.SchedulerStats` is a read view over it.
  With a recording tracer (``obs=Observability.enabled()``) the job
  lifecycle (submitted → running → retry → done), steal and OOM-split
  events land on a ``scheduler`` track, and the pool's devices emit
  launch/team spans in simulated time.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.errors import (
    DeadlineExceeded,
    DeviceError,
    DeviceOutOfMemory,
    DeviceTrap,
    EnsembleSafetyError,
    JobFailed,
    ReproError,
    RetriesExhausted,
    SchedulerError,
)
from repro.faults.injector import (
    NO_FAULTS,
    FaultInjector,
    InjectedDeviceLoss,
    InjectedFault,
    NullFaultInjector,
)
from repro.faults.report import FAULT_EXIT, FaultReport
from repro.host.ensemble_loader import (
    EnsembleLoader,
    EnsembleResult,
    InstanceOutcome,
)
from repro.host.launch import LaunchSpec
from repro.obs import Observability
from repro.sched.jobs import (
    BatchRecord,
    Job,
    JobFuture,
    JobResult,
    JobState,
    JobTicket,
)
from repro.sched.pool import DevicePool, PoolWorker
from repro.sched.stats import SchedulerStats

#: Track name the scheduler's own (wall-clock) events are recorded on.
SCHED_TRACK = "scheduler"

#: Consecutive injected faults after which a device is quarantined
#: (unless it is the last healthy one).
QUARANTINE_THRESHOLD = 3


@dataclass
class _BisectionPolicy:
    """The OOM-halving batch-size ceiling of one (device, job) pair.

    Only an OOM moves the ceiling: a short remainder chunk launching fine
    says nothing about larger sizes, so success never lowers it.
    """

    max_batch: int | None = None
    current: int | None = None

    def next_size(self, remaining: int) -> int:
        """Batch size to try for ``remaining`` outstanding instances."""
        size = remaining if self.current is None else min(self.current, remaining)
        if self.max_batch is not None:
            size = min(size, self.max_batch)
        return max(1, size)

    def record_oom(self, failed_size: int) -> None:
        """Halve the ceiling after ``failed_size`` (> 1) OOMed."""
        self.current = failed_size // 2


def _launch_chunk(
    loader: EnsembleLoader,
    spec: LaunchSpec,
    chunk: list[list[str]],
    first_index: int,
) -> tuple[EnsembleResult, list[InstanceOutcome]]:
    """Launch a contiguous slice of a job under ``spec``'s limits.

    Returns the raw launch result plus outcomes re-tagged with job-global
    instance indices (``first_index`` onward), so slices run on any
    device in any order merge into one result.
    """
    run = loader.run_ensemble(spec.with_instances(chunk))
    outcomes = [
        replace(o, index=first_index + o.index) for o in run.instances
    ]
    return run, outcomes


@dataclass
class _Chunk:
    """A contiguous shard of one job's instances."""

    job: Job
    start: int  # global index of the first instance in this shard
    instances: list[list[str]]
    attempt: int = 0
    #: The attempt counter came from a split parent, not from this chunk
    #: faulting itself.  Reset to zero once any chunk of the job launches
    #: successfully: after an OOM-bisection success, a later unrelated
    #: fault must retry from attempt 0, not from the parent's attempt N.
    attempt_inherited: bool = False
    #: Kinds of the injected faults this chunk is being retried for (a
    #: chunk can stack several — e.g. a worker death then injected OOM);
    #: a subsequent successful launch publishes each as
    #: ``faults.recovered``.
    pending_faults: list = field(default_factory=list)

    def split(self) -> tuple["_Chunk", "_Chunk"]:
        half = len(self.instances) // 2
        inherited = self.attempt_inherited or self.attempt > 0
        left = _Chunk(
            self.job, self.start, self.instances[:half], self.attempt, inherited
        )
        right = _Chunk(
            self.job,
            self.start + half,
            self.instances[half:],
            self.attempt,
            inherited,
        )
        return left, right


class Scheduler:
    """Shards ensemble jobs across a device pool; see module docstring."""

    def __init__(
        self,
        pool: DevicePool,
        *,
        max_batch: int | None = None,
        default_retries: int = 2,
        backoff_base: float = 0.0,
        chunk_size: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
        obs: Observability | None = None,
        faults=None,
        static_packing: bool = True,
        job_scoped_faults: bool = False,
        cache=None,
    ):
        if default_retries < 0:
            raise SchedulerError("default_retries must be >= 0")
        self.pool = pool
        self.max_batch = max_batch
        self.default_retries = default_retries
        self.backoff_base = backoff_base
        self.chunk_size = chunk_size
        #: Seed per-device batch caps from the compiler's StaticFootprint
        #: instead of discovering them through runtime OOM bisection.
        self.static_packing = static_packing
        #: Multi-tenant mode (the ``repro.serve`` contract): a fault plan
        #: carried by a submitted spec arms an injector scoped to *that
        #: job only* — its injection points fire solely during that job's
        #: launches — instead of lazily arming the campaign-global
        #: injector.  One tenant's chaos must not leak into another's.
        self.job_scoped_faults = job_scoped_faults
        self.obs = obs if obs is not None else Observability()
        self.tracer = self.obs.tracer
        self.metrics = self.obs.metrics
        pool.attach_obs(self.obs)
        #: Chaos hook: a FaultInjector (or a FaultPlan / spec string to arm
        #: one) shared by every injection point in the campaign — the
        #: scheduler's own dispatch loop and, via the pool, every device
        #: and RPC host.  ``None`` keeps the zero-cost NO_FAULTS default.
        self.faults = NO_FAULTS
        if faults is not None:
            self._arm_faults(
                faults
                if isinstance(faults, (FaultInjector, NullFaultInjector))
                else FaultInjector(faults)
            )
        #: Shared compile-once cache (see :mod:`repro.compilecache`):
        #: attached to every pool worker, so each distinct (program,
        #: config) compiles once for the whole pool; cached footprints
        #: pre-seed static packing without recompiling.
        self.cache = cache
        if cache is not None:
            cache.attach_metrics(self.metrics)
            pool.attach_cache(cache)
        self.stats = SchedulerStats(self.metrics)
        for label in pool.labels:
            self.stats.device(label)
        self._sleep = sleep
        self._queues: list[deque[_Chunk]] = [deque() for _ in pool.workers]
        #: per-(worker, job) bisection state: a size that OOMed on a device
        #: is never retried on that device.
        self._policies: dict[tuple[int, int], _BisectionPolicy] = {}
        #: per-(worker, job) statically derived batch cap (None = dynamic).
        self._static_caps: dict[tuple[int, int], int | None] = {}
        #: Every submitted job, keyed by id; futures and tickets resolve
        #: through this registry (``release`` drops terminal entries).
        self._jobs: dict[int, Job] = {}
        self._next_job_id = 0
        self._rr = 0  # round-robin cursor for chunk placement

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    def _arm_faults(self, injector) -> None:
        injector.attach_obs(self.obs)
        self.faults = injector
        self.pool.attach_faults(injector)

    def _count(self, name: str, amount: float = 1.0, **labels) -> None:
        self.metrics.counter(f"sched.{name}", **labels).inc(amount)

    def _dev_count(
        self, label: str, name: str, amount: float = 1.0, **labels
    ) -> None:
        self.metrics.counter(
            f"sched.device.{name}", device=label, **labels
        ).inc(amount)

    def _event(self, name: str, **args) -> None:
        if self.tracer.enabled:
            self.tracer.instant(name, track=SCHED_TRACK, cat="sched", args=args)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        program: Any,
        spec: LaunchSpec,
        *,
        retries: int | None = None,
        step_budget: int | None = None,
        loader_opts: dict[str, Any] | None = None,
        tenant: str = "",
    ) -> JobFuture:
        """Queue a campaign; returns a future resolving to a
        :class:`~repro.sched.jobs.JobResult`.

        ``program`` is a DSL :class:`~repro.frontend.dsl.Program` or
        compiled :class:`~repro.ir.module.Module`; ``loader_opts`` are
        forwarded to each per-device
        :class:`~repro.host.ensemble_loader.EnsembleLoader` (heap size,
        mapping strategy, ``allow_races``...).  ``step_budget`` caps the
        job's *total* interpreter steps across all of its launches — the
        deadline mechanism of a simulator whose only clock is simulated.
        ``tenant`` stamps the job's :class:`JobTicket` with its
        fair-share identity (set by ``repro.serve``; optional locally).
        """
        if not isinstance(spec, LaunchSpec):
            raise SchedulerError(
                "Scheduler.submit takes a LaunchSpec; wrap the argument "
                "source in repro.host.LaunchSpec(...)"
            )
        instances = spec.resolve_instances()
        if not instances:
            raise SchedulerError("job needs at least one instance")
        plan = spec.resolve_fault_plan()
        injector = None
        if plan is not None:
            if self.job_scoped_faults:
                # Multi-tenant isolation: this plan fires only inside
                # this job's launches, whatever else the pool is running.
                injector = FaultInjector(plan)
                injector.attach_obs(self.obs)
            elif not self.faults.enabled:
                # Spec-carried chaos plan: armed lazily for the whole
                # campaign (a constructor injector wins over the spec).
                self._arm_faults(FaultInjector(plan))
        job = Job(
            job_id=self._next_job_id,
            program=program,
            spec=spec,
            instances=instances,
            retries=self.default_retries if retries is None else retries,
            step_budget=step_budget,
            loader_opts=dict(loader_opts or {}),
            tenant=tenant,
            injector=injector,
        )
        self._next_job_id += 1
        self._jobs[job.job_id] = job
        self._count("jobs.submitted")
        self._event(
            f"job {job.job_id} submitted",
            job=job.job_id,
            instances=len(instances),
        )
        for chunk in self._shard(job):
            self._queues[self._rr % len(self.pool)].append(chunk)
            self._rr += 1
        from repro import wire

        ticket = JobTicket(
            job_id=job.job_id,
            tenant=tenant,
            spec_hash=wire.spec_hash(spec.with_instances(instances).to_wire()),
        )
        return JobFuture(ticket, self)

    # ------------------------------------------------------------------
    # ticket plumbing
    # ------------------------------------------------------------------
    def _job_of(self, ticket_or_id) -> Job:
        job_id = getattr(ticket_or_id, "job_id", ticket_or_id)
        job = self._jobs.get(job_id)
        if job is None:
            raise SchedulerError(
                f"unknown job {job_id}: never submitted here, or already "
                "released"
            )
        return job

    def future_of(self, ticket: JobTicket) -> JobFuture:
        """Rehydrate a live :class:`JobFuture` from a serializable ticket.

        The inverse of ``future.ticket``: any process holding the
        scheduler can turn a ticket (which may have crossed a wire or a
        pickle) back into a drivable handle.  Unknown tickets raise
        :class:`~repro.errors.SchedulerError`.
        """
        job = self._job_of(ticket)
        ticket.state = job.state
        return JobFuture(ticket, self)

    def release(self, ticket_or_id) -> None:
        """Forget a terminal job's bookkeeping (results, bisection state).

        A long-running server completes millions of jobs against one
        scheduler; without release, every outcome would be retained
        forever.  Releasing a non-terminal job is an error.  Compiled
        loaders stay cached in the pool — they are keyed by program, not
        job, and reuse across submissions is the point of serving.
        """
        job = self._job_of(ticket_or_id)
        if not job.state.terminal:
            raise SchedulerError(
                f"job {job.job_id} is {job.state.value}; only terminal "
                "jobs can be released"
            )
        del self._jobs[job.job_id]
        for key in [k for k in self._policies if k[1] == job.job_id]:
            del self._policies[key]
        for key in [k for k in self._static_caps if k[1] == job.job_id]:
            del self._static_caps[key]

    def _shard(self, job: Job) -> list[_Chunk]:
        n = len(job.instances)
        size = self.chunk_size
        if size is None:
            # ~2 chunks per device: every device gets work, faster devices
            # (or luckier shards) pick up the surplus via stealing.  One
            # device has nobody to steal from: try the whole job at once.
            devices = len(self.pool)
            size = n if devices == 1 else -(-n // (2 * devices))
        if self.max_batch is not None:
            size = min(size, self.max_batch)
        size = max(1, size)
        return [
            _Chunk(job, start, job.instances[start : start + size])
            for start in range(0, n, size)
        ]

    def run_campaign(self, program: Any, spec: LaunchSpec, **submit_kw) -> JobResult:
        """Submit one job and drive the pool until it resolves."""
        return self.submit(program, spec, **submit_kw).result()

    # ------------------------------------------------------------------
    # the dispatch loop
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Run until every queued shard has been dispatched."""
        while self._step():
            pass

    def step(self) -> bool:
        """Dispatch exactly one shard; False when no work is queued.

        The incremental face of :meth:`drain`, for callers that own the
        outer loop — the ``repro.serve`` pump interleaves one step at a
        time with socket I/O so a long campaign cannot starve clients.
        """
        return self._step()

    @property
    def has_work(self) -> bool:
        """True while any shard is queued on any device."""
        return any(self._queues)

    def _drive(self, job: Job) -> None:
        """Advance the pool until ``job`` reaches a terminal state."""
        while not job.state.terminal:
            if not self._step():
                raise SchedulerError(
                    f"job {job.job_id} is {job.state.value} but the pool "
                    "has no runnable work"
                )

    def _step(self) -> bool:
        """Dispatch one chunk to the least-loaded device; False when idle."""
        if not any(self._queues):
            return False
        # Earliest-available device in simulated time runs next: this is
        # what "all devices execute concurrently" looks like when replayed
        # deterministically on one host.  Quarantined devices are out of
        # rotation (their queues were redistributed at quarantine time).
        worker = min(self.pool.healthy, key=lambda w: (w.busy_cycles, w.index))
        own = self._queues[worker.index]
        if own:
            chunk = own.popleft()
        else:
            victim = max(
                (q for q in self._queues if q),
                key=len,
            )
            chunk = victim.popleft()  # steal the oldest shard
            self._count("steals")
            self._dev_count(worker.label, "steals")
            self._event(
                f"steal by {worker.label}",
                job=chunk.job.job_id,
                first_instance=chunk.start,
                size=len(chunk.instances),
            )
        self._run_chunk(worker, chunk)
        return True

    # ------------------------------------------------------------------
    # running one chunk
    # ------------------------------------------------------------------
    def _run_chunk(self, worker: PoolWorker, chunk: _Chunk) -> None:
        job = chunk.job
        if job.state.terminal:  # stale shard of a failed/cancelled job
            return
        if job.state is JobState.PENDING:
            job.state = JobState.RUNNING
            self._event(f"job {job.job_id} running", job=job.job_id)

        remaining = job.steps_remaining
        if remaining is not None and remaining <= 0:
            self._fail_job(
                job,
                DeadlineExceeded(
                    f"job {job.job_id} exhausted its step budget of "
                    f"{job.step_budget} with {job.pending_instances} "
                    "instances outstanding",
                    job_id=job.job_id,
                ),
            )
            return

        try:
            loader = worker.loader_for(job)
            # The race gate is a property of the whole campaign: chunking
            # must not smuggle a racy program past it one instance at a
            # time.
            loader._check_ensemble_safety(job.total_instances)
        except ReproError as exc:
            self._fail_job(job, exc)
            return

        # per-device bisection: never re-try a size this device OOMed on
        key = (worker.index, job.job_id)
        policy = self._policies.get(key)
        if policy is None:
            policy = _BisectionPolicy(max_batch=self.max_batch)
            static_cap = self._seed_static_cap(worker, job, loader, policy)
            self._policies[key] = policy
            self._static_caps[key] = static_cap
        static_cap = self._static_caps.get(key)
        if static_cap == 0:
            # Not even one instance fits the device heap: fail before the
            # first launch instead of discovering it through bisection.
            fp = loader.static_footprint
            self._fail_job(
                job,
                DeviceOutOfMemory(
                    requested=fp.heap_hi or 0,
                    free=loader.heap_bytes,
                    capacity=loader.heap_bytes,
                ),
            )
            return
        cap = policy.next_size(len(chunk.instances))
        if (
            static_cap is not None
            and policy.current is None
            and cap < len(chunk.instances)
        ):
            # The static bound (not OOM history — none yet) truncated the
            # chunk: one doomed launch + bisection round skipped.
            self.metrics.counter("analysis.packing.static_hits").inc()
        if len(chunk.instances) > cap:
            head = _Chunk(
                job,
                chunk.start,
                chunk.instances[:cap],
                chunk.attempt,
                chunk.attempt_inherited,
                chunk.pending_faults,
            )
            tail = _Chunk(
                job,
                chunk.start + cap,
                chunk.instances[cap:],
                chunk.attempt,
                chunk.attempt_inherited,
            )
            self._queues[worker.index].appendleft(tail)
            chunk = head

        max_steps = job.spec.max_steps
        clamped = remaining is not None and remaining < max_steps
        if clamped:
            max_steps = remaining
        spec = replace(job.spec, max_steps=max_steps)

        # Ambient fault context: device-level injection points (allocation,
        # RPC replies) fired during this launch can match job=/device=
        # selectors without threading the ids through every layer.  In
        # job-scoped mode the job's own injector (or NO_FAULTS) is armed
        # on the device for exactly this launch, so one tenant's plan
        # never observes another tenant's traffic.
        faults = job.injector if job.injector is not None else self.faults
        if self.job_scoped_faults:
            worker.device.faults = faults
        with faults.scoped(job=job.job_id, device=worker.label):
            if faults.enabled:
                fault = faults.fire(
                    "sched.dispatch",
                    instance_range=range(
                        chunk.start, chunk.start + len(chunk.instances)
                    ),
                )
                if fault is not None and self._dispatch_fault(
                    worker, chunk, fault
                ):
                    return
            try:
                if self.tracer.enabled:
                    with self.tracer.span(
                        f"dispatch j{job.job_id}"
                        f"[{chunk.start}+{len(chunk.instances)}]",
                        track=SCHED_TRACK,
                        cat="dispatch",
                        job=job.job_id,
                        device=worker.label,
                    ):
                        run, outcomes = _launch_chunk(
                            loader, spec, chunk.instances, chunk.start
                        )
                else:
                    run, outcomes = _launch_chunk(
                        loader, spec, chunk.instances, chunk.start
                    )
            except DeviceOutOfMemory as exc:
                self._count("oom_splits")
                self._dev_count(worker.label, "oom_splits")
                self._event(
                    f"oom split on {worker.label}",
                    job=job.job_id,
                    size=len(chunk.instances),
                )
                job.oom_splits += 1
                if len(chunk.instances) == 1:
                    if isinstance(exc, InjectedFault):
                        # Injected pressure never fails the campaign: the
                        # unsplittable instance is isolated instead.
                        self._isolate_chunk(worker, chunk, exc)
                        self._maybe_complete(job)
                        return
                    self._fail_job(job, exc)  # one instance does not fit
                    return
                policy.record_oom(len(chunk.instances))
                left, right = chunk.split()
                if isinstance(exc, InjectedFault):
                    left.pending_faults = chunk.pending_faults + [
                        exc.fault_kind
                    ]
                self._queues[worker.index].appendleft(right)
                self._queues[worker.index].appendleft(left)
                return
            except EnsembleSafetyError as exc:
                self._fail_job(job, exc)
                return
            except DeviceError as exc:
                if (
                    clamped
                    and isinstance(exc, DeviceTrap)
                    and "interpreter steps" in str(exc)
                ):
                    self._fail_job(
                        job,
                        DeadlineExceeded(
                            f"job {job.job_id} hit its step budget of "
                            f"{job.step_budget} mid-launch",
                            job_id=job.job_id,
                            cause=exc,
                        ),
                    )
                    return
                self._retry(worker, chunk, exc)
                return
            except ReproError as exc:
                self._fail_job(job, exc)  # loader misuse etc.: not transient
                return

        worker.fault_streak = 0
        for kind in chunk.pending_faults:
            self.metrics.counter("faults.recovered", kind=kind).inc()
            self._event(
                f"recovered {kind}",
                job=job.job_id,
                device=worker.label,
            )
        chunk.pending_faults = []
        if job.retries_used or job.oom_splits:
            # Backoff reset on success: queued siblings that inherited this
            # job's attempt counter from a split start over from attempt 0
            # — a later unrelated fault must not start half-exhausted.
            for queue in self._queues:
                for c in queue:
                    if c.job is job and c.attempt_inherited:
                        c.attempt = 0
                        c.attempt_inherited = False
        for outcome in outcomes:
            job.outcomes[outcome.index] = outcome
            if outcome.fault is not None:
                # Per-instance faults surfaced inside the launch (e.g. an
                # injected RPC timeout isolating one team).
                outcome.fault.job_id = job.job_id
                outcome.fault.device = worker.label
                job.fault_reports.append(outcome.fault)
        job.batches.append(
            BatchRecord(
                first_instance=chunk.start,
                size=len(chunk.instances),
                cycles=run.cycles,
            )
        )
        job.steps_used += run.launch.interpreter_steps
        backend = job.spec.backend
        if run.cycles is None:
            job.have_cycles = False
            elapsed = float(run.launch.interpreter_steps)
            self._dev_count(worker.label, "busy_steps", elapsed, backend=backend)
        else:
            job.cycles += run.cycles
            elapsed = run.cycles
            self._dev_count(worker.label, "busy_cycles", elapsed, backend=backend)
        # The dispatch heuristic stays clock-agnostic: whichever domain a
        # launch was timed in, the device that did it is "ahead".
        worker.busy_cycles += elapsed

        self._dev_count(worker.label, "batches", backend=backend)
        self._dev_count(
            worker.label, "instances", len(chunk.instances), backend=backend
        )
        self._dev_count(
            worker.label,
            "interpreter_steps",
            run.launch.interpreter_steps,
            backend=backend,
        )
        self._count("instances.completed", len(chunk.instances), backend=backend)
        self._maybe_complete(job)

    def _seed_static_cap(
        self, worker: PoolWorker, job: Job, loader, policy: _BisectionPolicy
    ) -> int | None:
        """Seed a fresh bisection policy from the compiled module's
        :class:`~repro.analysis.footprint.StaticFootprint`.

        Returns the static per-device instance cap (``0`` = even one
        instance cannot fit), or ``None`` when packing is disabled or the
        footprint is unbounded — the classic dynamic-bisection path.
        """
        if not self.static_packing:
            return None
        try:
            preseeded = (
                getattr(loader, "_static_footprint", None) is not None
                or getattr(loader, "_cache_entry", None) is not None
            )
            fp = loader.static_footprint
        except ReproError:
            return None
        if preseeded:
            # The footprint came with the loader's compile-cache entry:
            # packing is seeded with zero recompute on this device.
            self.metrics.counter("analysis.packing.footprint_cached").inc()
        cap = fp.max_instances(loader.heap_bytes)
        if cap is None:
            self.metrics.counter("analysis.packing.static_misses").inc()
            self._event(
                f"static packing miss on {worker.label}",
                job=job.job_id,
                bounded=fp.bounded,
            )
            return None
        self.metrics.counter("analysis.packing.static_seeds").inc()
        self._event(
            f"static packing cap {cap} on {worker.label}",
            job=job.job_id,
            heap_hi=fp.heap_hi,
            cap=cap,
        )
        if cap > 0:
            policy.max_batch = (
                cap if policy.max_batch is None else min(policy.max_batch, cap)
            )
        return cap

    def _retry(self, worker: PoolWorker, chunk: _Chunk, exc: Exception) -> None:
        job = chunk.job
        chunk.attempt += 1
        job.retries_used += 1
        injected = isinstance(exc, InjectedFault)
        if injected:
            chunk.pending_faults.append(exc.fault_kind)
            worker.fault_streak += 1
            self._maybe_quarantine(worker)
        self._count("retries")
        self._dev_count(worker.label, "retries")
        self._event(
            f"retry on {worker.label}",
            job=job.job_id,
            attempt=chunk.attempt,
            error=type(exc).__name__,
        )
        if chunk.attempt > job.retries:
            if injected:
                # Graceful degradation: an injected fault that survives
                # every retry is isolated into FaultReports, never a
                # campaign-level crash.
                self._isolate_chunk(worker, chunk, exc)
                self._maybe_complete(job)
                return
            self._fail_job(
                job,
                RetriesExhausted(
                    f"job {job.job_id}: instances {chunk.start}.."
                    f"{chunk.start + len(chunk.instances) - 1} still faulting "
                    f"after {job.retries} retries: {exc}",
                    job_id=job.job_id,
                    cause=exc,
                ),
            )
            return
        if self.backoff_base > 0:
            self._sleep(self.backoff_base * (2 ** (chunk.attempt - 1)))
        target = worker.index
        if injected or worker.quarantined:
            # An injected fault marks the device as suspect: requeue to the
            # least-loaded *other* healthy device when the pool has one.
            # Real faults keep the historical same-device requeue.
            others = [w for w in self.pool.healthy if w is not worker]
            if others:
                target = min(
                    others, key=lambda w: (len(self._queues[w.index]), w.index)
                ).index
        self._queues[target].append(chunk)

    # ------------------------------------------------------------------
    # fault handling: dispatch-point kinds, quarantine, isolation
    # ------------------------------------------------------------------
    def _dispatch_fault(self, worker: PoolWorker, chunk: _Chunk, fault) -> bool:
        """React to a fired ``sched.dispatch`` fault; True = chunk consumed."""
        job = chunk.job
        if fault.kind == "worker_death":
            self._retry(
                worker,
                chunk,
                InjectedDeviceLoss(fault, device=worker.label, job=job.job_id),
            )
            return True
        if fault.kind == "deadline":
            # The job's deadline fires: everything still pending — queued
            # shards included — is isolated and the job completes degraded.
            self._purge(job)
            pending = [
                i for i in range(job.total_instances) if i not in job.outcomes
            ]
            self._isolate_indices(
                job,
                pending,
                kind=fault.kind,
                point=fault.point,
                message=f"injected deadline fired for job {job.job_id}",
                device=worker.label,
            )
            self._maybe_complete(job)
            return True
        if fault.kind == "poison":
            sel = fault.selector("instance")
            if sel is None or sel == "*":
                idxs = list(
                    range(chunk.start, chunk.start + len(chunk.instances))
                )
                rest: list[_Chunk] = []
            else:
                # Isolate exactly the poisoned instance; the rest of the
                # shard goes back to the queue untouched.
                target = int(sel)
                idxs = [target]
                rel = target - chunk.start
                rest = []
                if chunk.instances[rel + 1 :]:
                    rest.append(
                        _Chunk(
                            job,
                            target + 1,
                            chunk.instances[rel + 1 :],
                            chunk.attempt,
                            chunk.attempt_inherited,
                        )
                    )
                if chunk.instances[:rel]:
                    rest.append(
                        _Chunk(
                            job,
                            chunk.start,
                            chunk.instances[:rel],
                            chunk.attempt,
                            chunk.attempt_inherited,
                        )
                    )
            for leftover in rest:
                self._queues[worker.index].appendleft(leftover)
            self._isolate_indices(
                job,
                idxs,
                kind=fault.kind,
                point=fault.point,
                message=f"instances {idxs} poisoned",
                device=worker.label,
            )
            self._maybe_complete(job)
            return True
        return False

    def _maybe_quarantine(self, worker: PoolWorker) -> None:
        """Quarantine a device whose injected-fault streak hit the
        threshold, redistributing its queue — unless it is the last
        healthy device, which must keep limping along."""
        if worker.quarantined or worker.fault_streak < QUARANTINE_THRESHOLD:
            return
        others = [w for w in self.pool.healthy if w is not worker]
        if not others:
            return
        worker.quarantined = True
        self._count("quarantines")
        self._dev_count(worker.label, "quarantines")
        self._event(
            f"quarantine {worker.label}",
            device=worker.label,
            streak=worker.fault_streak,
        )
        queue = self._queues[worker.index]
        while queue:
            chunk = queue.popleft()
            target = min(
                others, key=lambda w: (len(self._queues[w.index]), w.index)
            )
            self._queues[target.index].append(chunk)

    def _isolate_chunk(self, worker: PoolWorker, chunk: _Chunk, exc) -> None:
        job = chunk.job
        idxs = list(range(chunk.start, chunk.start + len(chunk.instances)))
        report = exc.to_report(
            job_id=job.job_id,
            device=worker.label,
            instances=idxs,
            attempts=chunk.attempt,
        )
        self._apply_isolation(job, idxs, report)

    def _isolate_indices(
        self,
        job: Job,
        idxs: list[int],
        *,
        kind: str,
        point: str,
        message: str,
        device: str | None = None,
    ) -> None:
        report = FaultReport(
            kind=kind,
            point=point,
            message=message,
            job_id=job.job_id,
            device=device,
            instances=list(idxs),
        )
        self._apply_isolation(job, idxs, report)

    def _apply_isolation(
        self, job: Job, idxs: list[int], report: FaultReport
    ) -> None:
        """The degradation contract: the affected instances get synthetic
        ``FAULT_EXIT`` outcomes plus the report; the job carries on."""
        if not idxs:
            return
        job.fault_reports.append(report)
        for idx in idxs:
            job.outcomes[idx] = InstanceOutcome(
                index=idx,
                args=job.instances[idx],
                exit_code=FAULT_EXIT,
                slot=-1,
                stdout="",
                fault=report,
            )
        self.metrics.counter("faults.isolated", kind=report.kind).inc(len(idxs))
        self._event(
            f"isolate {report.kind}",
            job=job.job_id,
            kind=report.kind,
            instances=len(idxs),
        )

    def _maybe_complete(self, job: Job) -> None:
        if job.state.terminal or job.pending_instances:
            return
        job.state = JobState.COMPLETED
        self._count("jobs.completed")
        self._event(
            f"job {job.job_id} completed",
            job=job.job_id,
            degraded=bool(job.fault_reports),
        )

    # ------------------------------------------------------------------
    # job termination
    # ------------------------------------------------------------------
    def _purge(self, job: Job) -> None:
        for queue in self._queues:
            stale = [c for c in queue if c.job is job]
            for c in stale:
                queue.remove(c)

    def _fail_job(self, job: Job, error: BaseException) -> None:
        self._purge(job)
        job.state = JobState.FAILED
        job.error = error
        self._count("jobs.failed")
        self._event(
            f"job {job.job_id} failed",
            job=job.job_id,
            error=type(error).__name__,
        )

    def _cancel(self, job: Job) -> bool:
        if job.state is not JobState.PENDING:
            return False
        self._purge(job)
        job.state = JobState.CANCELLED
        job.error = JobFailed(
            f"job {job.job_id} cancelled before any shard ran",
            job_id=job.job_id,
        )
        self._count("jobs.cancelled")
        self._event(f"job {job.job_id} cancelled", job=job.job_id)
        return True


__all__ = ["Scheduler"]
