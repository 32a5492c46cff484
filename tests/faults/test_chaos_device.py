"""Chaos: device-layer injection points (``device.alloc``, ``device.launch``).

Contract under test: injected allocation pressure and team stalls degrade
the run (bisection, inflated timing) without changing any instance's
output, and every injection is visible in the obs registry.
"""

import pytest

from repro.errors import DeviceOutOfMemory
from repro.faults import NO_FAULTS, FaultInjector, InjectedOOM
from repro.gpu.device import GPUDevice
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import LaunchSpec
from repro.host.results import Observables
from tests.util import SMALL_DEVICE

LINES = [[str(i)] for i in range(4)]


def spec(plan=None, **kw):
    kw.setdefault("thread_limit", 32)
    return LaunchSpec(LINES, fault_plan=plan, **kw)


def make_loader(prog):
    return EnsembleLoader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)


class TestInjectedOOM:
    def test_alloc_fault_raises_injected_oom(self, echo_prog):
        loader = make_loader(echo_prog)
        with pytest.raises(InjectedOOM) as exc_info:
            loader.run_ensemble(spec("oom:times=1", collect_timing=False))
        # Injected OOM is catchable exactly like the real thing: the
        # bisection machinery upstream needs no special case.
        assert isinstance(exc_info.value, DeviceOutOfMemory)
        assert exc_info.value.fault_kind == "oom"
        loader.close()

    def test_alloc_fault_does_not_leak_heap(self, echo_prog):
        # After an injected OOM the next launch must see a clean heap:
        # the fault fires before launch-scoped allocations, so nothing to
        # unwind.  A second run on the same loader succeeds bit-for-bit.
        loader = make_loader(echo_prog)
        with pytest.raises(InjectedOOM):
            loader.run_ensemble(spec("oom:times=1", collect_timing=False))
        again = loader.run_ensemble(spec(collect_timing=False))
        assert again.return_codes == [0, 1, 2, 3]
        loader.close()

    def test_injection_published_to_metrics(self, echo_prog):
        from repro.obs import Observability

        obs = Observability.enabled()
        loader = make_loader(echo_prog)
        injector = FaultInjector("oom:times=1")
        injector.attach_obs(obs)
        loader.device.faults = injector
        with pytest.raises(InjectedOOM):
            loader.run_ensemble(spec(collect_timing=False))
        series = obs.metrics.series("faults.injected")
        assert sum(c.value for c in series) == 1
        assert any(("kind", "oom") in c.labels for c in series)
        from repro.faults import FAULT_TRACK

        names = [e.name for e in obs.tracer.events_on(FAULT_TRACK)]
        assert any("oom" in n for n in names)
        loader.close()


class TestSlowTeam:
    def test_stall_inflates_timing_only(self, echo_prog):
        loader = make_loader(echo_prog)
        base = loader.run_ensemble(spec())
        slow = loader.run_ensemble(spec("slow_team:team=0:factor=10"))
        assert slow.cycles > base.cycles
        assert Observables.of(slow).instances == Observables.of(base).instances
        loader.close()

    def test_stall_off_critical_path_is_bounded(self, echo_prog):
        # Inflating one team by N grows the makespan at most by that
        # team's inflated time (critical-path excess), never by N times
        # the whole launch.
        loader = make_loader(echo_prog)
        base = loader.run_ensemble(spec())
        slow = loader.run_ensemble(spec("slow_team:team=1:factor=2"))
        assert base.cycles < slow.cycles <= base.cycles * 2
        loader.close()

    def test_untargeted_runs_untouched(self, echo_prog):
        loader = make_loader(echo_prog)
        base = loader.run_ensemble(spec())
        miss = loader.run_ensemble(spec("slow_team:team=99:factor=10"))
        assert miss.cycles == base.cycles
        loader.close()


class TestNoFaultsDefault:
    def test_device_default_is_inert_singleton(self):
        device = GPUDevice(SMALL_DEVICE)
        assert device.faults is NO_FAULTS
        assert not device.faults.enabled

    def test_no_faults_run_is_identical(self, echo_prog):
        # The zero-cost default: a run with no plan and a run before the
        # faults subsystem existed are indistinguishable.
        loader = make_loader(echo_prog)
        a = loader.run_ensemble(spec())
        b = loader.run_ensemble(spec(plan=None))
        assert a.return_codes == b.return_codes
        assert a.cycles == b.cycles
        assert loader.device.faults is NO_FAULTS
        loader.close()
