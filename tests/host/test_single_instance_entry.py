"""``Loader.run`` is the enhanced loader at NI = 1.

An executable carries one entry kernel, ``__ensemble_entry``; a
single-instance run launches it in one team.  The run must be the one an
:class:`EnsembleLoader` makes of the same one-instance spec, on every
registry app and both backends, timed: exit code, stdout, retired steps,
simulated cycles and every field of the team's block trace — and, when
an injected fault isolates the instance, the same fault.
"""

from __future__ import annotations

import functools

import pytest

from repro.apps.registry import APPS
from repro.compilecache.build import build_executable
from repro.faults import FAULT_EXIT
from repro.gpu.device import GPUDevice
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from repro.host.results import Observables
from repro.runtime.kernel import ENSEMBLE_KERNEL
from tests.property.test_backend_equivalence import TIMED_ARGS
from tests.util import SMALL_DEVICE, as_single_run, trace_fields

HEAP_BYTES = 4 << 20


@functools.lru_cache(maxsize=None)
def _executable(app: str):
    return build_executable(APPS[app].build_program().compile())


def _observed(result, stdout: str, exit_code: int) -> dict:
    launch = result.launch
    return {
        "kernel": launch.kernel,
        "teams": launch.num_teams,
        "exit_code": exit_code,
        "stdout": stdout,
        "steps": launch.interpreter_steps,
        "cycles": float(result.cycles).hex(),
        "traces": [trace_fields(t) for t in launch.traces],
    }


@pytest.mark.parametrize("backend", ["interp", "compiled"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_loader_run_is_the_ensemble_loader_at_one_instance(app, backend):
    module = _executable(app)
    assert [fn.name for fn in module.kernels()] == [ENSEMBLE_KERNEL]
    spec = LaunchSpec([list(TIMED_ARGS[app])], thread_limit=32, backend=backend)

    single = Loader(module, GPUDevice(SMALL_DEVICE), heap_bytes=HEAP_BYTES)
    run = single.run(spec)
    ensemble = EnsembleLoader(module, GPUDevice(SMALL_DEVICE), heap_bytes=HEAP_BYTES)
    res = ensemble.run_ensemble(spec)
    (inst,) = res.instances

    got = _observed(run, run.stdout, run.exit_code)
    want = _observed(res, inst.stdout, inst.exit_code)
    assert got == want
    assert got["kernel"] == ENSEMBLE_KERNEL and got["teams"] == 1
    assert got["exit_code"] == 0 and got["stdout"]


@pytest.mark.parametrize("transport", ["direct", "ring"])
def test_faulted_single_run_matches_the_one_instance_ensemble(transport):
    """An RPC timeout isolates the one instance of ``Loader.run`` exactly
    as it does the one instance of ``run_ensemble``: exit FAULT_EXIT and
    an ``rpc_timeout`` report, over either transport."""
    spec = LaunchSpec(
        [list(TIMED_ARGS["stencil"])],
        thread_limit=32,
        fault_plan="rpc_timeout:times=1",
    )
    opts = dict(heap_bytes=HEAP_BYTES, rpc_transport=transport)
    module = _executable("stencil")
    run = Loader(module, GPUDevice(SMALL_DEVICE), **opts).run(spec)
    res = EnsembleLoader(module, GPUDevice(SMALL_DEVICE), **opts).run_ensemble(spec)

    got = Observables.of(run)
    assert got == as_single_run(Observables.of(res))
    ((_, _, exit_code, _, kind),) = got.instances
    assert (exit_code, kind) == (FAULT_EXIT, "rpc_timeout")
