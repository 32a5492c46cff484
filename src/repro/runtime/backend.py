"""The backend-selection API: how a lowered kernel gets executed.

Two engines ship with the simulator, both implementing the
:class:`Backend` protocol:

* ``interp`` — the reference SIMT interpreter
  (:class:`~repro.runtime.interpreter.BlockExecutor`): one pre-specialized
  handler closure per instruction, min-PC lockstep scheduling.
* ``compiled`` — the threaded-code backend
  (:class:`~repro.runtime.compiled.CompiledBlockExecutor`): each basic
  block of the verified register IR (``-O1`` by default) becomes Python
  source the first time a team reaches it, is ``compile()``d once per
  kernel and bound per team with ``types.FunctionType`` (no ``exec``),
  and is dispatched through a block table, with full-row numpy
  vectorization on warp-uniform stretches.  Bitwise-identical results, same memory model, same
  trace/metrics hooks, same fault-injection points.

``compiled`` is the default (:data:`DEFAULT_BACKEND`) for every entry
point; ``interp`` stays the specification and the differential oracle.
The one difference a user can see is the ``max_steps`` livelock guard,
which the compiled engine checks per block: a livelock trap may retire
up to one basic block more than the interpreter would.

Selection is part of the launch description:
``LaunchSpec(backend="interp")`` threads through ``run_ensemble``,
``Scheduler.submit``, and the CLI's ``--backend`` down to
:meth:`repro.gpu.device.GPUDevice.launch`.  Callers with custom engines
may also pass any object implementing the protocol, or register one
under a name with :func:`register_backend`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import LaunchError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.interpreter import BlockContext
    from repro.runtime.machine import LoweredKernel

#: Name of the default execution engine (the interpreter is the oracle,
#: not the default).
DEFAULT_BACKEND = "compiled"

#: Default per-launch interpreter-step cap: the livelock guard, generous
#: enough for every shipped benchmark.
DEFAULT_MAX_STEPS = 400_000_000

#: Guard policies for certificate-aware backends:
#:
#: * ``"checked"``   — dynamic guards on every memory/trap site;
#: * ``"unchecked"`` — sites the certificate PROVEs safe run guard-free
#:   (identical observables by soundness);
#: * ``"assert"``    — guards stay armed, but one firing at a PROVEN site
#:   reports a certificate violation (debug mode for the analyzer itself).
#:
#: The interpreter backend always runs fully guarded.
SAFETY_MODES = ("checked", "unchecked", "assert")
#: The guard policy of a launch that names none.
DEFAULT_SAFETY_MODE = "unchecked"


@runtime_checkable
class Backend(Protocol):
    """An execution engine for lowered kernels.

    ``name`` identifies the engine in specs, CLI flags, and metric
    labels.  ``executor`` builds a per-team runner for one block; the
    returned object must expose ``run()`` (execute the block to
    completion, raising :class:`~repro.errors.DeviceTrap` on faults) and
    a ``steps`` attribute (dynamic instruction count, in interpreter-step
    units, after ``run()`` returns or raises).
    """

    name: str

    def executor(self, kernel: "LoweredKernel", ctx: "BlockContext"):
        """Build a block runner for ``kernel`` under ``ctx``."""
        ...  # pragma: no cover - protocol


class InterpreterBackend:
    """The reference engine: per-instruction handler dispatch."""

    name = "interp"

    def executor(self, kernel: "LoweredKernel", ctx: "BlockContext"):
        from repro.runtime.interpreter import BlockExecutor

        return BlockExecutor(kernel, ctx)


class CompiledBackend:
    """The threaded-code engine: per-basic-block compiled closures."""

    name = "compiled"

    def executor(self, kernel: "LoweredKernel", ctx: "BlockContext"):
        from repro.runtime.compiled import CompiledBlockExecutor

        return CompiledBlockExecutor(kernel, ctx)


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> None:
    """Register ``backend`` under ``backend.name`` for spec lookup."""
    _REGISTRY[backend.name] = backend


def available_backends() -> list[str]:
    """Names accepted by ``LaunchSpec(backend=...)`` and ``--backend``."""
    return sorted(_REGISTRY)


def get_backend(spec: "str | Backend") -> Backend:
    """Resolve a backend name (or pass through a Backend instance)."""
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]
        except KeyError:
            raise LaunchError(
                f"unknown backend {spec!r}; available: "
                f"{', '.join(available_backends())}"
            ) from None
    if isinstance(spec, Backend):
        return spec
    raise LaunchError(
        f"backend must be a name or a Backend implementation, "
        f"got {type(spec).__name__}"
    )


register_backend(InterpreterBackend())
register_backend(CompiledBackend())


__all__ = [
    "Backend",
    "CompiledBackend",
    "DEFAULT_BACKEND",
    "DEFAULT_MAX_STEPS",
    "DEFAULT_SAFETY_MODE",
    "InterpreterBackend",
    "SAFETY_MODES",
    "available_backends",
    "get_backend",
    "register_backend",
]
