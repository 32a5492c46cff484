"""Static analysis over the device IR: a reusable dataflow framework and
the ensemble-safety lint built on top of it.

The framework layer (usable by passes and tools alike):

* :class:`~repro.analysis.cfg.CFG` — explicit control-flow graph,
* :func:`~repro.analysis.dominators.dominators` /
  :func:`~repro.analysis.dominators.postdominators`,
* :func:`~repro.analysis.loops.natural_loops` — natural loops over
  ``CFG`` + ``dominators``,
* :mod:`~repro.analysis.dataflow` — generic gen/kill solver plus liveness,
  reaching definitions, use-before-def, parallel-region depths, and
  register-taint propagation.

The interprocedural layer (``-O2`` is built on it):

* :mod:`~repro.analysis.callgraph` — direct/indirect call graph with SCC
  condensation,
* :mod:`~repro.analysis.pointsto` — flow-insensitive Andersen-style
  points-to/alias analysis over IR memory ops.

These are the only derivations of predecessors, reachability, dominators
and natural loops from IR; every pass and checker takes them from here.
Nothing is cached across passes: a consumer computes what it needs on the
IR it is handed.

The checker layer emits structured
:class:`~repro.analysis.diagnostics.Diagnostic` records:

* ``races`` — mutable globals shared (and written) across ensemble
  instances (§3.3 of the paper),
* ``barrier-divergence`` — team synchronization reachable under
  thread-divergent branches (deadlock on real hardware),
* ``rpc`` — host-only calls that escaped RPC lowering; RPCs issued in
  parallel or divergent regions,
* ``uninit`` — registers read before any definition on some path,
* ``static-oob`` / ``static-trap`` — memory and arithmetic sites the
  :mod:`~repro.analysis.safety` certificates prove unsafe on every
  execution (DISPROVEN verdicts with line/col provenance).

Entry points: :func:`analyze_module` runs a set of checkers over a module;
``repro.tools.lint`` is the CLI; ``passes.pipeline`` exposes an opt-in
analyze stage; and the ensemble loader refuses multi-instance launches of
racy modules unless overridden.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.analysis.callgraph import CallGraph, CallSite, build_callgraph
from repro.analysis.cfg import CFG
from repro.analysis.dataflow import (
    DataflowResult,
    ParDepthInfo,
    UninitUse,
    liveness,
    par_depths,
    propagate_regs,
    reaching_defs,
    uninitialized_uses,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    count_by_severity,
    errors,
)
from repro.analysis.divergence import check_divergence, thread_dependent_regs
from repro.analysis.dominators import dominators, postdominators
from repro.analysis.loops import Loop, natural_loops
from repro.analysis.pointsto import MemObject, MemSpace, PointsTo
from repro.analysis.races import check_races, summarize_global_accesses
from repro.analysis.ranges import Interval
from repro.analysis.rpc_legality import check_rpc_legality
from repro.analysis.safety import (
    SafetyCertificate,
    SiteProof,
    Verdict,
    analyze_kernel,
    certificates_for,
    certify_module,
    check_static_oob,
    check_static_trap,
    stamp_certificates,
)
from repro.analysis.uninit import check_uninitialized
from repro.ir.module import Module

#: Registry of all ensemble-safety checkers, by CLI name.
CHECKERS: dict[str, Callable[[Module], list[Diagnostic]]] = {
    "races": check_races,
    "barrier-divergence": check_divergence,
    "rpc": check_rpc_legality,
    "uninit": check_uninitialized,
    "static-oob": check_static_oob,
    "static-trap": check_static_trap,
}


def analyze_module(
    module: Module, checkers: Iterable[str] | None = None
) -> list[Diagnostic]:
    """Run the named checkers (default: all) and return their findings,
    most severe first, in a stable order."""
    names = list(checkers) if checkers is not None else list(CHECKERS)
    unknown = [n for n in names if n not in CHECKERS]
    if unknown:
        raise KeyError(
            f"unknown checker(s) {unknown}; available: {sorted(CHECKERS)}"
        )
    diags: list[Diagnostic] = []
    for name in names:
        diags.extend(CHECKERS[name](module))
    diags.sort(
        key=lambda d: (
            -int(d.severity),
            d.checker,
            d.function,
            d.block or "",
            -1 if d.index is None else d.index,
        )
    )
    return diags


__all__ = [
    "CFG",
    "CHECKERS",
    "CallGraph",
    "CallSite",
    "DataflowResult",
    "Diagnostic",
    "Interval",
    "Loop",
    "MemObject",
    "MemSpace",
    "ParDepthInfo",
    "PointsTo",
    "SafetyCertificate",
    "Severity",
    "SiteProof",
    "UninitUse",
    "Verdict",
    "analyze_kernel",
    "analyze_module",
    "build_callgraph",
    "certificates_for",
    "certify_module",
    "check_divergence",
    "check_races",
    "check_rpc_legality",
    "check_static_oob",
    "check_static_trap",
    "check_uninitialized",
    "stamp_certificates",
    "count_by_severity",
    "dominators",
    "errors",
    "liveness",
    "natural_loops",
    "par_depths",
    "postdominators",
    "propagate_regs",
    "reaching_defs",
    "summarize_global_accesses",
    "thread_dependent_regs",
    "uninitialized_uses",
]
