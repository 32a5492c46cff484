"""The unified report facade and the registry-view re-plumb of the
stats surfaces (SchedulerStats, KernelProfile, EnsembleOutcome)."""

import warnings

import pytest

from repro.host.ensemble_loader import InstanceOutcome
from repro.obs import MetricsRegistry, report
from repro.sched.jobs import JobResult
from repro.sched.stats import DeviceStats, SchedulerStats


def outcomes():
    return [
        InstanceOutcome(index=0, args=["a"], exit_code=0, slot=0, stdout="A\n"),
        InstanceOutcome(index=1, args=["b"], exit_code=3, slot=1, stdout="B\n"),
    ]


class TestReportDispatch:
    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            report(JobResult(job_id=0, instances=outcomes()), format="yaml")

    def test_rejects_unknown_value(self):
        with pytest.raises(TypeError, match="render"):
            report(object())

    def test_outcome_summary_text_json(self):
        res = JobResult(job_id=0, instances=outcomes(), total_cycles=1234.5)
        summary = report(res, format="summary")
        assert "2 instances" in summary and "1 failed" in summary
        text = report(res, format="text")
        assert summary in text and "exit 3" in text
        data = report(res, format="json")
        assert data == {
            "instances": 2,
            "return_codes": [0, 3],
            "all_succeeded": False,
            "total_cycles": 1234.5,
        }

    def test_untimed_outcome_renders_untimed(self):
        res = JobResult(job_id=0, instances=outcomes(), total_cycles=None)
        assert "untimed" in report(res, format="summary")

    def test_scheduler_stats_formats(self):
        stats = SchedulerStats()
        stats.registry.counter("sched.jobs.submitted").inc()
        stats.registry.counter("sched.jobs.completed").inc()
        dev = stats.device("d0")
        dev.registry.counter("sched.device.busy_cycles", device="d0").inc(100.0)
        summary = report(stats, format="summary")
        assert "1/1 jobs" in summary and "d0=1.00" in summary
        text = report(stats, format="text")
        assert "[cycles]" in text
        data = report(stats, format="json")
        assert data["devices"]["d0"]["utilization"] == 1.0

    def test_scaling_result_formats(self):
        from repro.harness.experiment import ScalingResult, ScalingRow

        res = ScalingResult(
            app="rsbench",
            thread_limit=32,
            workload_args=["-p", "8"],
            rows=[
                ScalingRow(
                    instances=1,
                    cycles=100.0,
                    speedup=1.0,
                    efficiency=1.0,
                    oom=False,
                    l2_hit_rate=0.5,
                    dram_efficiency=0.5,
                )
            ],
        )
        text = report(res, format="text")
        assert "rsbench" in text
        table = report({"rsbench": res}, format="text")
        assert "N=1" in table
        data = report({"rsbench": res}, format="json")
        assert data["rsbench"]["rows"][0]["instances"] == 1


class TestProfileFacade:
    def _profile(self, rsbench_loader):
        from repro.harness.profile import profile_launch
        from repro.host.launch import LaunchSpec

        res = rsbench_loader.run_ensemble(
            LaunchSpec([["-p", "8", "-n", "2", "-l", "16", "-s", "1"]],
                       thread_limit=32)
        )
        return res, profile_launch(res.launch)

    def test_launch_result_reports_via_profile(self, rsbench_loader):
        res, prof = self._profile(rsbench_loader)
        text = report(res.launch, format="text")
        assert "kernel" in text and "simulated cycles" in text
        data = report(res.launch, format="json")
        assert data["cycles"] == prof.cycles

    def test_profile_is_a_registry_view(self, rsbench_loader):
        from repro.harness.profile import KernelProfile, profile_launch

        res, prof = self._profile(rsbench_loader)
        reg = MetricsRegistry()
        again = profile_launch(res.launch, metrics=reg)
        assert again == prof  # same launch, same numbers
        # and the registry now materializes the identical view
        assert KernelProfile.from_metrics(reg, kernel=prof.kernel) == prof
        assert reg.value("profile.cycles", kernel=prof.kernel) == prof.cycles

    def test_public_render_method_removed(self, rsbench_loader):
        _, prof = self._profile(rsbench_loader)
        assert not hasattr(prof, "render")
        via_facade = report(prof, format="text")
        assert "simulated cycles" in via_facade


class TestRemovedShims:
    """The v1 per-module renderers were removed in v2.0 — the facade is
    the only rendering surface."""

    def test_summarize_outcome_removed(self):
        import repro.host.results as results

        assert not hasattr(results, "summarize_outcome")

    def test_render_helpers_removed(self):
        import repro.harness.report as hreport

        assert not hasattr(hreport, "render_scaling_detail")
        assert not hasattr(hreport, "render_figure6_table")


class TestStatsViews:
    def test_reads_are_silent(self):
        stats = SchedulerStats()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert stats.jobs_completed == 0
            assert stats.device("d").busy_cycles == 0.0

    def test_direct_assignment_rejected(self):
        stats = SchedulerStats()
        with pytest.raises(AttributeError, match="read-only"):
            stats.retries = 3

    def test_augmented_assignment_rejected(self):
        dev = DeviceStats("d0")
        with pytest.raises(AttributeError, match="read-only"):
            dev.batches += 1

    def test_registry_publication_is_the_source_of_truth(self):
        reg = MetricsRegistry()
        stats = SchedulerStats(reg)
        reg.counter("sched.oom_splits").inc(2)
        reg.counter("sched.device.instances", device="g0").inc(5)
        assert stats.oom_splits == 2
        assert stats.device("g0").instances == 5

    def test_counters_read_as_ints(self):
        stats = SchedulerStats()
        stats.registry.counter("sched.jobs.submitted").inc()
        assert isinstance(stats.jobs_submitted, int)


class TestMixedClockUtilization:
    """The bugfix: cycle- and step-clocked devices no longer blend."""

    def _mixed(self):
        stats = SchedulerStats()
        timed = stats.device("timed")
        untimed = stats.device("untimed")
        stats.registry.counter(
            "sched.device.busy_cycles", device="timed"
        ).inc(1000.0)
        stats.registry.counter(
            "sched.device.busy_steps", device="untimed"
        ).inc(400.0)
        return stats, timed, untimed

    def test_mixed_clocks_detected(self):
        stats, timed, untimed = self._mixed()
        assert stats.mixed_clocks
        assert timed.clock == "cycles"
        assert untimed.clock == "steps"

    def test_per_unit_utilization_not_blended(self):
        stats, _, _ = self._mixed()
        util = stats.utilization()
        # each device is the critical path *of its own clock domain*;
        # historically the steps leaked into the cycle makespan and the
        # step-clocked device scored 400/1000 = 0.4.
        assert util == {"timed": 1.0, "untimed": 1.0}

    def test_single_domain_is_unchanged(self):
        stats = SchedulerStats()
        stats.device("a")
        stats.device("b")
        stats.registry.counter("sched.device.busy_cycles", device="a").inc(100.0)
        stats.registry.counter("sched.device.busy_cycles", device="b").inc(50.0)
        assert not stats.mixed_clocks
        assert stats.utilization() == {"a": 1.0, "b": 0.5}
        assert stats.makespan_cycles == 100.0

    def test_summary_reports_clock_and_mixed_flag(self):
        stats, _, _ = self._mixed()
        s = stats.summary()
        assert s["mixed_clocks"] is True
        assert s["devices"]["timed"]["clock"] == "cycles"
        assert s["devices"]["untimed"]["clock"] == "steps"
        text = report(stats, format="text")
        assert "mixed" in text
        assert "400 steps" in text
