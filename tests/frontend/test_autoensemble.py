"""The auto-ensemble engine: trace/launch/replay plumbing with fake
backends, rejection behavior, and the device-backed differential suite
proving ensemble == sequential, including under recovered fault plans."""

import dataclasses

import pytest

from repro.errors import AutoEnsembleError
from repro.faults import FAULT_EXIT, FaultPlan
from repro.frontend.autoensemble import (
    AutoRunResult,
    EnsembleBackend,
    analyze,
    auto_launch,
    ensemble,
)
from repro.host.launch import LaunchSpec
from repro.host.results import Observables

# ---------------------------------------------------------------------------
# Fakes: deterministic result synthesis, no device
# ---------------------------------------------------------------------------


def fake_backend(calls):
    return [
        AutoRunResult(
            index=i, args=args, exit_code=0, stdout=" ".join(args) + "\n"
        )
        for i, args in enumerate(calls)
    ]


def fake_sequential(args):
    return 0, " ".join(args) + "\n"


def sweep(run):
    outs = []
    total = 0
    for seed in range(1, 5):
        cfg = ["-s", str(seed)]
        r = run(cfg)
        outs.append(r.stdout)
        total += r.exit_code
    return outs, total


class TestEngine:
    def test_trace_launch_replay(self):
        out = auto_launch(sweep, execute=fake_backend)
        assert out.mode == "ensemble"
        assert out.num_instances == 4
        assert [r.args for r in out.instances] == [
            ("-s", "1"), ("-s", "2"), ("-s", "3"), ("-s", "4"),
        ]
        assert out.value == (["-s 1\n", "-s 2\n", "-s 3\n", "-s 4\n"], 0)
        assert out.all_succeeded

    def test_matches_sequential_mode(self):
        auto = auto_launch(sweep, execute=fake_backend)
        seq = auto_launch(
            sweep, mode="sequential", sequential_execute=fake_sequential
        )
        assert seq.mode == "sequential"
        assert auto.value == seq.value
        assert [
            (r.index, r.args, r.exit_code, r.stdout) for r in auto.instances
        ] == [(r.index, r.args, r.exit_code, r.stdout) for r in seq.instances]

    def test_run_arg_shapes_normalized(self):
        def drv(run):
            for s in range(2):
                run("-n 512", ["-s", s], "-v")

        out = auto_launch(drv, execute=fake_backend)
        assert out.instances[0].args == ("-n", "512", "-s", "0", "-v")

    def test_keyword_run_args_rejected(self):
        def drv(run):
            for s in range(2):
                run(["-s"], seed=s)

        with pytest.raises(AutoEnsembleError, match="positional"):
            auto_launch(drv, execute=fake_backend)

    def test_empty_iterable_is_zero_instances(self):
        def drv(run):
            acc = 0
            for cfg in []:
                acc += run(cfg).exit_code
            return acc

        out = auto_launch(drv, execute=fake_backend)
        assert out.num_instances == 0
        assert out.value == 0

    def test_multiple_run_calls_per_iteration(self):
        def drv(run):
            for s in range(2):
                run(["-a", str(s)])
                run(["-b", str(s)])

        out = auto_launch(drv, execute=fake_backend)
        assert [r.args for r in out.instances] == [
            ("-a", "0"), ("-b", "0"), ("-a", "1"), ("-b", "1"),
        ]

    def test_backend_count_mismatch_detected(self):
        with pytest.raises(AutoEnsembleError, match="backend returned"):
            auto_launch(sweep, execute=lambda calls: fake_backend(calls)[:-1])

    def test_nondeterministic_driver_detected(self):
        state = {"epoch": 0}

        def drv(run):
            for s in range(3):
                run(["-s", str(s), "-e", str(state["epoch"])])
            state["epoch"] += 1  # epilogue: trace and replay diverge

        with pytest.raises(AutoEnsembleError, match="replay drift"):
            auto_launch(drv, execute=fake_backend)

    def test_pending_placeholder_backstop(self):
        from repro.frontend.autoensemble import _PENDING

        assert (_PENDING + 1) is (_PENDING.exit_code)
        with pytest.raises(AutoEnsembleError, match="control flow"):
            bool(_PENDING)
        with pytest.raises(AutoEnsembleError):
            list(_PENDING)
        # min/max reductions must trace through without forcing a value
        assert min(7, _PENDING.exit_code) == 7
        assert max(_PENDING.exit_code, 7) is _PENDING

    def test_min_max_reductions_replay(self):
        def drv(run):
            worst = -1
            for s in range(3):
                worst = max(worst, run(["-s", str(s)]).exit_code)
            return worst

        out = auto_launch(drv, execute=fake_backend)
        assert out.value == 0
        seq = auto_launch(
            drv, mode="sequential", sequential_execute=fake_sequential
        )
        assert out.value == seq.value


class TestRejection:
    def test_dependent_loop_raises_with_diagnostics(self):
        def drv(run):
            last = None
            for s in range(3):
                run(["-s", str(s)])
                last = s
            return last

        with pytest.raises(AutoEnsembleError) as exc:
            auto_launch(drv, execute=fake_backend)
        assert exc.value.diagnostics
        assert any(d.sym == "last" for d in exc.value.diagnostics)
        assert "output dependence" in str(exc.value)

    def test_loopless_driver_rejected(self):
        def drv(run):
            return run(["-s", "1"])

        with pytest.raises(AutoEnsembleError, match="no for loop"):
            auto_launch(drv, execute=fake_backend)

    def test_unknown_mode_rejected(self):
        with pytest.raises(AutoEnsembleError, match="mode"):
            auto_launch(sweep, mode="parallel", execute=fake_backend)

    def test_unknown_loader_opt_rejected(self):
        with pytest.raises(AutoEnsembleError, match="unknown auto_launch"):
            auto_launch(sweep, execute=fake_backend, heap_megabytes=1)

    def test_analyze_reports_without_executing(self):
        calls = []

        def drv(run):
            for s in range(3):
                calls.append  # attribute read only; no call
                run(["-s", str(s)])

        classifications = analyze(drv)
        assert len(classifications) == 1
        assert not calls  # nothing executed


class TestDecorator:
    def test_bare_decorator(self):
        @ensemble
        def drv(run):
            for s in range(2):
                run(["-s", str(s)])

        out = drv(execute=fake_backend)
        assert out.num_instances == 2
        assert drv.driver.__name__ == "drv"

    def test_options_and_overrides(self):
        @ensemble(execute=fake_backend)
        def drv(run):
            total = 0
            for s in range(3):
                total += run(["-s", str(s)]).exit_code
            return total

        assert drv().value == 0
        seq = drv(mode="sequential", sequential_execute=fake_sequential)
        assert seq.mode == "sequential"

    def test_positional_misuse_rejected(self):
        with pytest.raises(AutoEnsembleError, match="keyword options"):
            ensemble("stencil")


# ---------------------------------------------------------------------------
# Device-backed differential suite (the acceptance contract)
# ---------------------------------------------------------------------------


def stencil_driver(run):
    checksums = []
    failures = 0
    for seed in range(1, 4):
        r = run(["-n", "256", "-i", "1", "-s", str(seed)])
        checksums.append(r.stdout)
        failures += r.exit_code
    return checksums, failures


#: Run options of every device-backed launch below.
RUN = LaunchSpec(thread_limit=32, collect_timing=False)


@pytest.fixture(scope="module")
def sequential_oracle():
    return auto_launch(
        stencil_driver, app="stencil", mode="sequential", spec=RUN,
        heap_bytes=1 << 22,
    )


class TestDeviceDifferential:
    def test_ensemble_bitwise_identical_to_sequential(self, sequential_oracle):
        auto = auto_launch(
            stencil_driver, app="stencil", spec=RUN, heap_bytes=1 << 22
        )
        assert auto.mode == "ensemble"
        assert auto.value == sequential_oracle.value
        assert Observables.of(auto) == Observables.of(sequential_oracle)
        assert auto.all_succeeded
        assert auto.spec is not None
        assert auto.campaign is not None

    def test_identical_under_recovered_fault_plan(self, sequential_oracle):
        plan = FaultPlan.parse("rpc_drop:rate=1.0:times=1:seed=0")
        faulted = auto_launch(
            stencil_driver, app="stencil",
            spec=dataclasses.replace(RUN, fault_plan=plan),
            heap_bytes=1 << 22,
        )
        assert faulted.value == sequential_oracle.value
        assert Observables.of(faulted) == Observables.of(sequential_oracle)

    def test_sequential_replay_reports_fault_exit(self):
        """A reply timeout isolates the sequential run it hits the way it
        isolates an ensemble instance: FAULT_EXIT, never a zero read as
        success.  The plan is armed once for the replay, so ``times=1``
        fires in the first run only."""

        def driver(run):
            codes = []
            for seed in range(1, 3):
                codes.append(run(["-n", "256", "-i", "1", "-s", str(seed)]).exit_code)
            return codes

        seq = auto_launch(
            driver, app="stencil", mode="sequential",
            spec=dataclasses.replace(RUN, fault_plan="rpc_timeout:times=1"),
            heap_bytes=1 << 22,
        )
        assert seq.value == [FAULT_EXIT, 0]

    def test_both_modes_arm_a_spec_fault_plan_once(self):
        """Sequential replay and the auto mode's campaign count one
        spec-carried plan's schedule over all of the driver's runs."""

        def driver(run):
            codes = []
            for seed in range(1, 4):
                codes.append(run(["-n", "256", "-i", "1", "-s", str(seed)]).exit_code)
            return codes

        spec = dataclasses.replace(RUN, fault_plan="rpc_timeout:times=1")
        codes = {
            mode: auto_launch(
                driver, app="stencil", mode=mode, spec=spec, heap_bytes=1 << 22
            ).value
            for mode in ("sequential", "auto")
        }
        assert codes["sequential"] == codes["auto"] == [FAULT_EXIT, 0, 0]

    def test_multi_device_identical(self, sequential_oracle):
        auto = auto_launch(
            stencil_driver, app="stencil", devices=2, spec=RUN,
            heap_bytes=1 << 22,
        )
        assert auto.value == sequential_oracle.value
        assert Observables.of(auto) == Observables.of(sequential_oracle)

    def test_one_device_campaign_is_one_launch(self):
        backend = EnsembleBackend(
            "stencil", spec=RUN, loader_opts={"heap_bytes": 1 << 22}
        )
        backend([("-n", "256", "-i", "1", "-s", str(s)) for s in range(1, 9)])
        batches = backend.last_result.batches
        assert [(b.first_instance, b.size) for b in batches] == [(0, 8)]

    def test_stdout_matches_reference_checksums(self, sequential_oracle):
        import re

        from repro.apps import reference

        checksums, failures = sequential_oracle.value
        assert failures == 0
        for seed, line in enumerate(checksums, start=1):
            got = float(re.search(r"checksum ([-\d.]+)", line).group(1))
            assert got == pytest.approx(
                reference.stencil_checksum(256, 1, seed), rel=1e-9
            )
