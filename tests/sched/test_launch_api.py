"""The unified launch surface: LaunchSpec, the shared result protocol,
and the v2.0 TypeError guards over the removed legacy call shapes."""

import dataclasses
import inspect

import pytest

from repro.errors import LoaderError
from repro.frontend.autoensemble import (
    EnsembleBackend,
    SequentialBackend,
    auto_launch,
)
from repro.gpu.device import GPUDevice
from repro.host.argfile import resolve_arg_source, write_argument_file
from repro.host.ensemble_loader import EnsembleResult, InstanceOutcome
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from repro.host.results import EnsembleOutcome
from repro.obs.reporting import report
from repro.runtime.interpreter import BlockContext
from repro.sched.jobs import JobResult

LINES = [["-p", "8", "-n", "2", "-l", "16", "-s", "1"],
         ["-p", "8", "-n", "2", "-l", "16", "-s", "2"]]


class TestResolveArgSource:
    def test_token_lists_pass_through(self):
        assert resolve_arg_source([["a", 1], ("b",)]) == [["a", "1"], ["b"]]

    def test_text(self):
        assert resolve_arg_source("x 1\n# comment\ny 2\n") == [["x", "1"], ["y", "2"]]

    def test_file(self, tmp_path):
        f = tmp_path / "a.txt"
        write_argument_file(f, LINES)
        assert resolve_arg_source(f) == LINES
        assert resolve_arg_source(str(f)) == LINES

    def test_unsupported_type_rejected(self):
        with pytest.raises(LoaderError):
            resolve_arg_source(42)


class TestLaunchSpec:
    def test_resolve_applies_num_instances_prefix(self):
        spec = LaunchSpec(LINES, num_instances=1)
        assert spec.resolve_instances() == LINES[:1]

    def test_too_many_instances_rejected(self):
        with pytest.raises(LoaderError, match="only"):
            LaunchSpec(LINES, num_instances=3).resolve_instances()

    def test_zero_instances_rejected(self):
        with pytest.raises(LoaderError, match="at least one"):
            LaunchSpec(LINES, num_instances=0).resolve_instances()

    @pytest.mark.parametrize(
        "bad",
        [
            {"safety_mode": "bogus"},
            {"backend": "bogus"},
            {"thread_limit": 0},
            {"max_steps": 0},
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_launch_spec_rejects(self, bad):
        """An invalid run option fails at construction, before any
        device work, instead of as a fault the scheduler retries."""
        with pytest.raises(LoaderError, match=next(iter(bad))):
            LaunchSpec(LINES, **bad)

    def test_from_wire_rejects_invalid_spec_as_bad_request(self):
        from repro import wire

        doc = LaunchSpec(LINES).to_wire()
        doc["thread_limit"] = 0
        with pytest.raises(wire.WireError) as exc:
            LaunchSpec.from_wire(doc)
        assert exc.value.code == wire.E_BAD_REQUEST

    def test_from_wire_defaults_come_from_the_dataclass(self):
        doc = {"kind": "LaunchSpec", "schema_version": 1, "instances": LINES}
        assert LaunchSpec.from_wire(doc) == LaunchSpec(LINES)

    def test_with_instances_keeps_limits(self):
        spec = LaunchSpec(LINES, thread_limit=64, collect_timing=False)
        sub = spec.with_instances([["q"]])
        assert sub.resolve_instances() == [["q"]]
        assert sub.thread_limit == 64
        assert sub.collect_timing is False


class TestUnifiedEntryPoints:
    def test_run_ensemble_takes_spec(self, rsbench_loader):
        res = rsbench_loader.run_ensemble(
            LaunchSpec(LINES, thread_limit=32, collect_timing=False)
        )
        assert res.return_codes == [0, 0]

    def test_run_ensemble_legacy_shape_raises_with_hint(self, rsbench_loader):
        with pytest.raises(TypeError, match="LaunchSpec"):
            rsbench_loader.run_ensemble(LINES)

    def test_run_ensemble_legacy_kwargs_rejected(self, rsbench_loader):
        with pytest.raises(TypeError):
            rsbench_loader.run_ensemble(LINES, thread_limit=32)

    def test_loader_run_accepts_single_instance_spec(self, rsbench_loader):
        res = rsbench_loader.run(
            LaunchSpec([LINES[0]], thread_limit=32, collect_timing=False)
        )
        assert res.exit_code == 0

    def test_loader_run_rejects_multi_instance_spec(self, rsbench_loader):
        with pytest.raises(LoaderError, match="exactly one"):
            rsbench_loader.run(LaunchSpec(LINES, thread_limit=32))

    def test_resolve_args_shim_removed(self):
        from repro.host.ensemble_loader import EnsembleLoader

        assert not hasattr(EnsembleLoader, "_resolve_args")


class TestOneLaunchDescription:
    """Run options are declared once, on :class:`LaunchSpec`."""

    FIELDS = {f.name for f in dataclasses.fields(LaunchSpec)}

    @pytest.mark.parametrize(
        "entry",
        [Loader.run, EnsembleBackend, SequentialBackend, auto_launch],
        ids=lambda entry: entry.__qualname__,
    )
    def test_entry_points_take_a_spec_not_its_fields(self, entry):
        params = set(inspect.signature(entry).parameters)
        assert not params & self.FIELDS

    @pytest.mark.parametrize(
        "layer", [GPUDevice.launch, BlockContext], ids=["launch", "context"]
    )
    def test_runtime_defaults_are_the_spec_defaults(self, layer):
        params = inspect.signature(layer).parameters
        defaults = {
            name: params[name].default
            for name in self.FIELDS & set(params)
            if params[name].default is not inspect.Parameter.empty
        }
        assert {"max_steps", "safety_mode"} <= set(defaults)
        assert defaults == {name: getattr(LaunchSpec, name) for name in defaults}


class TestResultProtocol:
    def _outcomes(self):
        return [
            InstanceOutcome(index=0, args=["a"], exit_code=0, slot=0, stdout="A\n"),
            InstanceOutcome(index=1, args=["b"], exit_code=3, slot=1, stdout="B\n"),
        ]

    def test_campaign_result_conforms(self):
        res = JobResult(job_id=0, instances=self._outcomes(), total_cycles=10.0)
        assert isinstance(res, EnsembleOutcome)
        assert res.return_codes == [0, 3]
        assert not res.all_succeeded
        assert res.stdout_of(1) == "B\n"

    def test_job_result_conforms(self):
        res = JobResult(job_id=0, instances=self._outcomes())
        assert isinstance(res, EnsembleOutcome)
        assert res.return_codes == [0, 3]
        assert res.stdout_of(0) == "A\n"
        assert res.total_cycles is None

    def test_ensemble_result_conforms(self, rsbench_loader):
        res = rsbench_loader.run_ensemble(
            LaunchSpec(LINES, thread_limit=32, collect_timing=False)
        )
        assert isinstance(res, EnsembleOutcome)
        assert res.total_cycles is None  # collect_timing off
        assert res.all_succeeded
        assert "RSBench" in res.stdout_of(0)

    def test_report_summary_handles_untimed(self):
        res = JobResult(job_id=0, instances=self._outcomes(), total_cycles=None)
        text = report(res, format="summary")
        assert "2 instances" in text
        assert "untimed" in text
        assert "1 failed" in text

    def test_report_summary_formats_cycles(self):
        res = JobResult(
            job_id=0, instances=self._outcomes()[:1], total_cycles=1234.5
        )
        assert "1234 simulated cycles" in report(res, format="summary")

    def test_summarize_outcome_removed(self):
        import repro.host.results as results

        assert not hasattr(results, "summarize_outcome")
