"""Chaos: batched campaigns on a one-device Scheduler.

Contract under test: a device lost at dispatch (``worker_death``) retries
the chunk cleanly; a persistent loss isolates the chunk's instances once
the job's ``retries`` are spent, and the campaign completes degraded.
"""

from repro.faults import FAULT_EXIT
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.obs import Observability
from repro.sched import DevicePool, Scheduler
from tests.util import SMALL_DEVICE

LINES = [[str(i)] for i in range(6)]


def make_sched(**kw):
    return Scheduler(DevicePool([GPUDevice(SMALL_DEVICE)]), **kw)


def run(sched, prog, plan=None):
    spec = LaunchSpec(LINES, thread_limit=32, collect_timing=False, fault_plan=plan)
    return sched.run_campaign(prog, spec, loader_opts={"heap_bytes": 1 << 20})


class TestRecoveredLoss:
    def test_single_loss_retries_and_recovers(self, echo_prog):
        obs = Observability()
        sched = make_sched(obs=obs)
        result = run(sched, echo_prog, "worker_death:times=1")
        assert [o.exit_code for o in result.instances] == list(range(6))
        assert result.retries == 1
        assert not result.fault_reports
        recovered = obs.metrics.series("faults.recovered")
        assert sum(c.value for c in recovered) == 1
        assert any(("kind", "worker_death") in c.labels for c in recovered)

    def test_outputs_match_unfaulted_run(self, echo_prog):
        base = run(make_sched(), echo_prog)
        hit = run(make_sched(), echo_prog, "worker_death:times=2")
        assert hit.retries == 2
        assert [o.exit_code for o in hit.instances] == [
            o.exit_code for o in base.instances
        ]
        assert [o.stdout for o in hit.instances] == [
            o.stdout for o in base.instances
        ]


class TestInjectedOOM:
    def test_spec_carried_oom_bisects_and_recovers(self, echo_prog):
        # The per-chunk launches forward the campaign spec; re-arming its
        # plan on each launch would restart the ``times=1`` schedule and
        # refire the OOM on every bisected size.  One campaign-scoped
        # injector must serve every batch.
        obs = Observability()
        sched = make_sched(max_batch=2, obs=obs)
        result = run(sched, echo_prog, "oom:times=1")
        assert [o.exit_code for o in result.instances] == list(range(6))
        assert result.oom_splits == 1
        assert len(sched.faults.events) == 1
        recovered = obs.metrics.series("faults.recovered")
        assert sum(c.value for c in recovered) == 1
        assert any(("kind", "oom") in c.labels for c in recovered)

    def test_next_run_rearms_a_fresh_plan(self, echo_prog):
        # ...while with job-scoped faults each submitted job arms its own
        # injector from its spec, so schedule counters start over per job.
        sched = make_sched(max_batch=2, job_scoped_faults=True)
        first = run(sched, echo_prog, "oom:times=1")
        second = run(sched, echo_prog, "oom:times=1")
        assert first.oom_splits == 1
        assert second.oom_splits == 1
        assert [o.exit_code for o in second.instances] == list(range(6))


class TestPersistentLoss:
    def test_stuck_batch_is_isolated_not_fatal(self, echo_prog):
        # A device that dies on every dispatch: each chunk is retried
        # ``retries`` times, then its instances are isolated into
        # FaultReports — the job completes degraded instead of failing.
        obs = Observability()
        sched = make_sched(max_batch=2, obs=obs)
        result = run(sched, echo_prog, "worker_death")
        assert [o.exit_code for o in result.instances] == [FAULT_EXIT] * 6
        assert len(result.fault_reports) == 3  # one per 2-instance chunk
        for report in result.fault_reports:
            assert report.kind == "worker_death"
            assert report.attempts == sched.default_retries + 1
        isolated = obs.metrics.series("faults.isolated")
        assert sum(c.value for c in isolated) == 6
        assert sched.stats.summary()["jobs_completed"] == 1

    def test_degraded_campaign_is_not_all_succeeded(self, echo_prog):
        # With no retries the first chunk is isolated on its one loss;
        # the rest of the campaign runs normally.
        sched = make_sched(max_batch=3, default_retries=0)
        result = run(sched, echo_prog, "worker_death:times=1")
        assert result.degraded
        assert not result.all_succeeded
        codes = [o.exit_code for o in result.instances]
        assert codes == [FAULT_EXIT] * 3 + [3, 4, 5]
