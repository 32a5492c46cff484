"""Interprocedural facts rendered as diagnostics (``lint --interproc``).

The optimization passes consume the interprocedural analyses silently;
this module makes the same facts *visible*: which functions sit on call
cycles and which globals escape to the host through RPC.

Everything here is a fact, not a safety finding, so the default severity
is NOTE; the exception is a WARNING for recursive call cycles, which the
inliner refuses once a kernel reaches them (device code has no unbounded
recursion).
"""

from __future__ import annotations

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.pointsto import PointsTo
from repro.ir.module import Module
from repro.passes.rename_main import USER_MAIN

CHECKER = "interproc"


def interproc_facts(module: Module, *, entry: str = USER_MAIN) -> list[Diagnostic]:
    """Run the interprocedural analyses and report their facts."""
    cg: CallGraph = build_callgraph(module)
    pt = PointsTo(module, cg)
    diags: list[Diagnostic] = []

    for scc in cg.sccs:
        if len(scc) > 1 or cg.is_recursive(scc[0]):
            diags.append(
                Diagnostic(
                    severity=Severity.WARNING,
                    checker=CHECKER,
                    function=scc[0],
                    block=None,
                    index=None,
                    message=(
                        "recursive call cycle "
                        + " -> ".join(scc)
                        + ": the inliner rejects it once a kernel reaches it"
                    ),
                    hint="unroll or bound the recursion",
                )
            )

    for obj in sorted(pt.rpc_visible, key=repr):
        if getattr(obj, "kind", None) == "global":
            diags.append(
                Diagnostic(
                    severity=Severity.NOTE,
                    checker=CHECKER,
                    function=entry,
                    block=None,
                    index=None,
                    message=f"global @{obj.key} escapes to the host via RPC",
                    sym=obj.key,
                )
            )
    return diags


__all__ = ["CHECKER", "interproc_facts"]
