"""Scheduler fault paths: OOM bisection, retries, deadlines, the safety
gate, work stealing, and job lifecycle."""

import pytest

from repro.errors import (
    DeadlineExceeded,
    DeviceOutOfMemory,
    DeviceTrap,
    EnsembleSafetyError,
    JobFailed,
    RetriesExhausted,
    SchedulerError,
)
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import LaunchSpec
from repro.sched import DevicePool, JobState, Scheduler
from repro.sched.pool import _default_loader_factory
from tests.util import SMALL_DEVICE

#: ~0.3 MiB per instance against a 1.5 MiB heap -> a handful fit at once.
BIG = ["-n", "4096", "-d", "8", "-i", "1"]
SMALL = ["-n", "256", "-d", "8", "-i", "1"]
HEAP = 1536 * 1024


def lines(n, base=SMALL):
    return [base + ["-s", str(s)] for s in range(1, n + 1)]


def spec(workload):
    return LaunchSpec(workload, thread_limit=32)


@pytest.fixture(scope="module")
def program():
    from repro.apps import pagerank

    return pagerank.build_program()


def make_scheduler(num_devices=2, *, factory=_default_loader_factory, **kw):
    pool = DevicePool(num_devices, config=SMALL_DEVICE, loader_factory=factory)
    return Scheduler(pool, **kw)


class FlakyLoader:
    """Wraps a real loader; raises DeviceTrap for the first N launches."""

    def __init__(self, inner: EnsembleLoader, failures: dict):
        self._inner = inner
        self._failures = failures

    def run_ensemble(self, spec):
        if self._failures["remaining"] != 0:
            self._failures["remaining"] -= 1
            raise DeviceTrap("injected transient fault")
        return self._inner.run_ensemble(spec)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def flaky_factory(failures: dict):
    def factory(program, device, opts):
        return FlakyLoader(EnsembleLoader(program, device, **opts), failures)

    return factory


class ScriptedLoader:
    """Wraps a real loader; each launch consumes one scripted behavior:
    ``"trap"`` raises DeviceTrap, ``"oom"`` raises DeviceOutOfMemory,
    ``"ok"`` runs for real.  Exhausted scripts run for real."""

    def __init__(self, inner: EnsembleLoader, script: list):
        self._inner = inner
        self._script = script

    def run_ensemble(self, spec):
        step = self._script.pop(0) if self._script else "ok"
        if step == "trap":
            raise DeviceTrap("scripted transient fault")
        if step == "oom":
            raise DeviceOutOfMemory(requested=1, free=0, capacity=1)
        return self._inner.run_ensemble(spec)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def scripted_factory(script: list):
    def factory(program, device, opts):
        return ScriptedLoader(EnsembleLoader(program, device, **opts), script)

    return factory


class TestHappyPath:
    def test_multi_job_completion_and_stats(self, program):
        sched = make_scheduler(2)
        f1 = sched.submit(program, spec(lines(4)), loader_opts={"heap_bytes": HEAP})
        f2 = sched.submit(program, spec(lines(2)), loader_opts={"heap_bytes": HEAP})
        r1, r2 = f1.result(), f2.result()
        assert r1.all_succeeded and r2.all_succeeded
        assert len(r1.instances) == 4 and len(r2.instances) == 2
        assert [o.index for o in r1.instances] == [0, 1, 2, 3]
        assert sched.stats.jobs_completed == 2
        assert sched.stats.instances_completed == 6
        assert sched.stats.makespan_cycles > 0
        assert r1.steps_used > 0

    def test_future_states(self, program):
        sched = make_scheduler(1)
        fut = sched.submit(program, spec(lines(1)), loader_opts={"heap_bytes": HEAP})
        assert fut.state is JobState.PENDING
        assert not fut.done()
        result = fut.result()
        assert fut.done() and fut.state is JobState.COMPLETED
        assert result.total_cycles > 0

    def test_submit_requires_spec(self, program):
        sched = make_scheduler(1)
        with pytest.raises(SchedulerError, match="LaunchSpec"):
            sched.submit(program, lines(2))

    def test_cancel_before_run(self, program):
        sched = make_scheduler(1)
        keep = sched.submit(program, spec(lines(1)), loader_opts={"heap_bytes": HEAP})
        drop = sched.submit(program, spec(lines(2)), loader_opts={"heap_bytes": HEAP})
        assert drop.cancel()
        with pytest.raises(JobFailed, match="cancelled"):
            drop.result()
        assert keep.result().all_succeeded
        assert sched.stats.jobs_cancelled == 1
        assert sched.stats.instances_completed == 1


class TestOOM:
    def test_oom_splits_until_feasible(self, program):
        sched = make_scheduler(2, chunk_size=8)
        fut = sched.submit(
            program, spec(lines(8, BIG)), loader_opts={"heap_bytes": HEAP}
        )
        result = fut.result()
        assert result.all_succeeded
        assert len(result.instances) == 8
        assert result.oom_splits >= 1
        assert sched.stats.oom_splits >= 1
        # the bisection policy never re-tries an OOMed size on that device
        assert all(b.size < 8 for b in result.batches)

    def test_single_instance_too_big_is_terminal(self, program):
        sched = make_scheduler(1)
        fut = sched.submit(
            program, spec(lines(2, BIG)), loader_opts={"heap_bytes": 128 * 1024}
        )
        with pytest.raises(DeviceOutOfMemory):
            fut.result()
        assert sched.stats.jobs_failed == 1


class TestRetries:
    def test_transient_fault_recovers(self, program):
        failures = {"remaining": 1}
        sched = make_scheduler(1, factory=flaky_factory(failures))
        fut = sched.submit(
            program, spec(lines(2)), loader_opts={"heap_bytes": HEAP}, retries=2
        )
        result = fut.result()
        assert result.all_succeeded
        assert result.retries == 1
        assert sched.stats.retries == 1

    def test_retry_exhaustion_fails_job(self, program):
        failures = {"remaining": -1}  # fault forever
        sched = make_scheduler(1, factory=flaky_factory(failures))
        fut = sched.submit(
            program, spec(lines(2)), loader_opts={"heap_bytes": HEAP}, retries=1
        )
        with pytest.raises(RetriesExhausted) as exc_info:
            fut.result()
        assert isinstance(exc_info.value.cause, DeviceTrap)
        assert sched.stats.jobs_failed == 1

    def test_backoff_schedule_is_exponential(self, program):
        failures = {"remaining": -1}
        naps = []
        sched = make_scheduler(
            1,
            factory=flaky_factory(failures),
            backoff_base=0.5,
            sleep=naps.append,
        )
        fut = sched.submit(
            program, spec(lines(1)), loader_opts={"heap_bytes": HEAP}, retries=3
        )
        with pytest.raises(RetriesExhausted):
            fut.result()
        assert naps == [0.5, 1.0, 2.0]  # exhaustion attempt does not sleep

    def test_backoff_resets_after_successful_split_sibling(self, program):
        # Regression: chunks produced by an OOM split inherited the parent's
        # attempt counter forever.  After a *successful* launch of the job,
        # a queued sibling that merely inherited attempts must start over —
        # a later unrelated transient fault gets the full retry budget and
        # base backoff, not a half-exhausted counter.
        # 4 instances shard into two chunks [0,1] and [2,3].  Both trap
        # once (each earns attempt 1 == the retry cap), then [0,1] OOMs and
        # splits into singles inheriting attempt 1.  Instance 0 succeeds —
        # which must reset its queued sibling — then instance 1 traps.
        script = ["trap", "trap", "oom", "ok", "trap", "ok"]
        naps = []
        sched = make_scheduler(
            1,
            factory=scripted_factory(script),
            backoff_base=0.5,
            sleep=naps.append,
            chunk_size=2,
        )
        fut = sched.submit(
            program, spec(lines(4)), loader_opts={"heap_bytes": HEAP}, retries=1
        )
        result = fut.result()
        # Without the reset, instance 1's trap lands on inherited attempt 2
        # > retries=1 and the job dies with RetriesExhausted.
        assert result.all_succeeded
        assert result.retries == 3
        assert result.oom_splits == 1
        # Every trap backs off from the base: the post-split trap starts
        # over at 0.5, not at the inherited schedule position.
        assert naps == [0.5, 0.5, 0.5]


class TestDeadline:
    def test_step_budget_exceeded_mid_launch(self, program):
        sched = make_scheduler(1)
        fut = sched.submit(
            program,
            spec(lines(2)),
            loader_opts={"heap_bytes": HEAP},
            step_budget=100,
        )
        with pytest.raises(DeadlineExceeded):
            fut.result()
        assert sched.stats.jobs_failed == 1

    def test_step_budget_exceeded_between_chunks(self, program):
        probe = make_scheduler(1)
        one_chunk = probe.submit(
            program, spec(lines(1)), loader_opts={"heap_bytes": HEAP}
        ).result()
        # enough budget for the first single-instance chunk, not the second
        sched = make_scheduler(1, chunk_size=1)
        fut = sched.submit(
            program,
            spec(lines(3)),
            loader_opts={"heap_bytes": HEAP},
            step_budget=one_chunk.steps_used + 1,
        )
        with pytest.raises(DeadlineExceeded):
            fut.result()

    def test_generous_budget_completes(self, program):
        sched = make_scheduler(1)
        fut = sched.submit(
            program,
            spec(lines(2)),
            loader_opts={"heap_bytes": HEAP},
            step_budget=1_000_000_000,
        )
        assert fut.result().all_succeeded


class TestSafetyGate:
    def test_racy_program_refused_even_with_single_instance_chunks(self):
        from tests.analysis.fixtures import racy_counter_program

        # chunk_size=1 would bypass a per-launch gate: the scheduler must
        # gate on the campaign's total instance count instead.
        sched = make_scheduler(2, chunk_size=1)
        fut = sched.submit(
            racy_counter_program(),
            spec([["1"], ["2"], ["3"], ["4"]]),
            loader_opts={"heap_bytes": 1 << 20},
        )
        with pytest.raises(EnsembleSafetyError, match="@counter"):
            fut.result()
        assert sched.stats.jobs_failed == 1

    def test_allow_races_override(self):
        from tests.analysis.fixtures import racy_counter_program

        sched = make_scheduler(2, chunk_size=1)
        fut = sched.submit(
            racy_counter_program(),
            spec([["1"], ["2"], ["3"], ["4"]]),
            loader_opts={"heap_bytes": 1 << 20, "allow_races": True},
        )
        assert fut.result().all_succeeded


class TestStealing:
    def test_idle_device_steals_queued_work(self, program):
        # chunk placement: dev0 <- [heavy, light], dev1 <- [light]; dev1
        # finishes early in simulated time and steals dev0's second chunk.
        sched = make_scheduler(2, chunk_size=1)
        workload = [BIG + ["-s", "1"], SMALL + ["-s", "2"], SMALL + ["-s", "3"]]
        fut = sched.submit(program, spec(workload), loader_opts={"heap_bytes": HEAP})
        result = fut.result()
        assert result.all_succeeded
        assert sched.stats.steals >= 1
        per_dev = sched.stats.per_device
        assert all(d.instances > 0 for d in per_dev.values())
