"""The one true compile chain, factored out of the loader.

Every path that turns a program module into a runnable device image —
:class:`~repro.host.loader.Loader`, the compile cache, ``compile_many``,
the server's activation path — funnels through :func:`build_executable`,
so "cached" and "cold" executables are the product of the *same* code by
construction, not by convention.

A finished module is stamped ``metadata["executable"] = True``; loaders
recognize the stamp and skip straight to image loading, which is what
lets one finalized module be shared across loaders, devices and tenants
(loading is read-only: per-image state lives in
:class:`~repro.gpu.device.DeviceImage`).  The lowered kernels, and the
compiled programs cached on them, are kept per executable module and
shared by every image of it, so a k-device pool lowers and generates
code once per kernel, not k times.
"""

from __future__ import annotations

import hashlib

from repro.analysis.safety import stamp_certificates
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.passes.globals_to_shared import globals_to_shared_pass
from repro.passes.pipeline import compile_for_device, finalize_executable
from repro.runtime.kernel import build_ensemble_kernel

#: ``module.metadata`` key marking a fully finalized executable module.
EXECUTABLE_META = "executable"

#: ``module.metadata`` key carrying the cache digest the executable was
#: stored under (set by the cache, absent on uncached builds).
DIGEST_META = "cache_digest"


def is_executable(module) -> bool:
    """True when ``module`` is a finalized, loader-ready executable."""
    return isinstance(module, Module) and bool(
        module.metadata.get(EXECUTABLE_META)
    )


def source_fingerprint(module: Module) -> str:
    """Content hash of a *pre-compilation* program module.

    The printed IR is deterministic but omits global initializer bytes,
    so those are hashed alongside; two modules with identical text and
    identical initial data are the same source as far as the compile
    cache is concerned.
    """
    h = hashlib.sha256()
    h.update(print_module(module).encode("utf-8"))
    for name in sorted(module.globals):
        h.update(b"\x00g\x00")
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(module.globals[name].initial_bytes())
    return "src:" + h.hexdigest()[:32]


def run_frontend(program, *, tracer=None) -> Module:
    """``program.compile()``: the frontend half of a cold build.  With an
    enabled :class:`~repro.obs.Tracer` it is one ``frontend`` span on the
    ``compiler`` track, beside the spans :func:`build_executable` records."""
    if tracer is not None and tracer.enabled:
        with tracer.span("frontend", track="compiler", cat="frontend"):
            return program.compile()
    return program.compile()


def build_executable(
    module: Module,
    *,
    team_local_globals: bool = False,
    shared_mem_budget: int | None = None,
    opt_level: int = 1,
    tracer=None,
    metrics=None,
) -> Module:
    """Run the full device compile chain on a program module, in place.

    Mirrors exactly what :class:`~repro.host.loader.Loader` historically
    did inline: front half (:func:`compile_for_device`), construction of
    the one entry kernel (``__ensemble_entry``, which every loader
    launches, :meth:`Loader.run <repro.host.loader.Loader.run>` with
    NI = 1), the optional globals-to-shared promotion, then
    :func:`finalize_executable`.  The result is stamped
    ``metadata["executable"] = True``.
    """
    obs_kw = dict(tracer=tracer, metrics=metrics)
    module = compile_for_device(module, **obs_kw)
    build_ensemble_kernel(module)
    if team_local_globals:
        globals_to_shared_pass(module, shared_mem_budget=shared_mem_budget)
    module = finalize_executable(module, opt_level=opt_level, **obs_kw)
    # Prove memory/trap safety once per executable; the certificates ride
    # in module metadata so every backend (and the compilecache) can elide
    # dynamic guards for PROVEN sites without re-running the analysis.
    stamp_certificates(module, **obs_kw)
    module.metadata[EXECUTABLE_META] = True
    return module


__all__ = [
    "EXECUTABLE_META",
    "DIGEST_META",
    "build_executable",
    "is_executable",
    "run_frontend",
    "source_fingerprint",
]
