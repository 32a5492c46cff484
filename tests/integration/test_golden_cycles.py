"""Golden simulated cycles for a miniature Figure-6 sweep.

Every Figure-6 app at N = 1 and 4, on both backends, with the coalescing
model on and off.  Each entry pins the launch's simulated cycles and a
digest of every :class:`~repro.gpu.timing.BlockTrace` field, so any change
to execution, trace collection or the timing model that moves a single
trace counter shows up here.

Regenerate (only when a change to the model is intended) with::

    PYTHONPATH=src python -m tests.integration.test_golden_cycles
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps.registry import APPS
from repro.config import DEFAULT_SIM
from repro.gpu.device import GPUDevice
from repro.harness.experiment import build_instance_lines
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import LaunchSpec
from tests.util import SMALL_DEVICE, trace_fields

FIXTURE = Path(__file__).parent / "fixtures" / "golden_cycles.json"

#: Miniature Figure-6 inputs: small enough that the interpreter backend
#: sweeps them in seconds.
GOLDEN_ARGS = {
    "xsbench": ["-g", "128", "-n", "4", "-l", "32"],
    "rsbench": ["-p", "8", "-n", "2", "-l", "16"],
    "amgmk": ["-n", "256", "-i", "1"],
    "stencil": ["-n", "256", "-i", "1"],
    "pagerank": ["-n", "256", "-d", "4", "-i", "1"],
}
COUNTS = (1, 4)
BACKENDS = ("interp", "compiled")
COALESCING = (True, False)
HEAP_BYTES = 4 * 1024 * 1024
THREAD_LIMIT = 32


def trace_digest(traces) -> str:
    """SHA-256 over every field of every block trace."""
    return hashlib.sha256(
        repr([trace_fields(t) for t in traces]).encode()
    ).hexdigest()


def key(app: str, n: int, backend: str, coalescing: bool) -> str:
    return f"{app}/N{n}/{backend}/{'coalesced' if coalescing else 'uncoalesced'}"


def sweep(app: str) -> dict[str, dict]:
    """Timed launches of one app over the golden grid."""
    out: dict[str, dict] = {}
    program = APPS[app].build_program()
    for coalescing in COALESCING:
        sim = replace(DEFAULT_SIM, model_coalescing=coalescing)
        loader = EnsembleLoader(
            program, GPUDevice(SMALL_DEVICE, sim), heap_bytes=HEAP_BYTES
        )
        for n in COUNTS:
            for backend in BACKENDS:
                run = loader.run_ensemble(
                    LaunchSpec(
                        build_instance_lines(GOLDEN_ARGS[app], n),
                        thread_limit=THREAD_LIMIT,
                        backend=backend,
                    )
                )
                assert all(code == 0 for code in run.return_codes)
                out[key(app, n, backend, coalescing)] = {
                    "cycles": float(run.cycles).hex(),
                    "traces": trace_digest(run.launch.traces),
                }
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("app", sorted(GOLDEN_ARGS))
def test_cycles_and_traces_match_golden(app, golden):
    got = sweep(app)
    want = {k: v for k, v in golden.items() if k.startswith(f"{app}/")}
    assert set(got) == set(want)
    for k in sorted(want):
        assert float.fromhex(got[k]["cycles"]) == float.fromhex(
            want[k]["cycles"]
        ), k
        assert got[k]["traces"] == want[k]["traces"], k


def main() -> None:
    data: dict[str, dict] = {}
    for app in sorted(GOLDEN_ARGS):
        data.update(sweep(app))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
