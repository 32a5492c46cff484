"""Interprocedural call graph over a linked module.

The IR only has direct calls (``call`` instructions carrying a callee
symbol), but a useful call graph still has to answer two questions the
intraprocedural analyses cannot:

* *who calls whom* — edges per call site, with the site's location, so
  facts (points-to sets) can be propagated across calls;
* *what is recursive* — Tarjan SCC condensation groups mutually recursive
  functions (``lint --interproc`` reports the cycles).

Calls to symbols defined nowhere in the module (host externs before RPC
lowering, unresolved references) are collected as *external* edges rather
than dropped: the points-to analysis must treat their arguments as
escaping.  ``rpc`` instructions are likewise surfaced as external edges
to their service name, because the host can observe (and mutate)
anything reachable from an RPC argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instructions import Instr, Opcode
from repro.ir.module import Module

#: Synthetic callee name for edges whose target is outside the module.
EXTERNAL = "<extern>"


@dataclass(frozen=True)
class CallSite:
    """One ``call`` (or ``rpc``) instruction, located in its caller."""

    caller: str
    block: str
    index: int
    callee: str
    is_rpc: bool = False
    is_extern: bool = False

    @property
    def external(self) -> bool:
        return self.is_rpc or self.is_extern or self.callee == EXTERNAL


@dataclass
class CallGraph:
    """Direct-call graph of one module, with SCC condensation.

    Attributes
    ----------
    callees / callers:
        Adjacency over *defined* function names (external edges excluded).
    sites:
        Every call site, including external and RPC edges.
    sccs:
        Strongly connected components, in **reverse topological order**
        (callees before callers); each SCC is a tuple of function names.
    scc_of:
        Function name -> index into :attr:`sccs`.
    """

    callees: dict[str, set[str]] = field(default_factory=dict)
    callers: dict[str, set[str]] = field(default_factory=dict)
    sites: list[CallSite] = field(default_factory=list)
    sccs: list[tuple[str, ...]] = field(default_factory=list)
    scc_of: dict[str, int] = field(default_factory=dict)

    def sites_of(self, callee: str) -> list[CallSite]:
        """Call sites whose target is ``callee``."""
        return [s for s in self.sites if s.callee == callee]

    def is_recursive(self, name: str) -> bool:
        """True when ``name`` sits on a call cycle (including self-calls)."""
        idx = self.scc_of.get(name)
        if idx is None:
            return False
        scc = self.sccs[idx]
        return len(scc) > 1 or name in self.callees.get(name, ())


def build_callgraph(module: Module) -> CallGraph:
    """Construct the :class:`CallGraph` of ``module``."""
    cg = CallGraph()
    for name in module.functions:
        cg.callees[name] = set()
        cg.callers[name] = set()
    for fn in module.functions.values():
        for block in fn.iter_blocks():
            for index, instr in enumerate(block.instrs):
                _record(cg, module, fn.name, block.label, index, instr)
    cg.sccs = _tarjan_sccs(cg.callees)
    cg.scc_of = {
        name: i for i, scc in enumerate(cg.sccs) for name in scc
    }
    return cg


def _record(
    cg: CallGraph, module: Module, caller: str, block: str, index: int, instr: Instr
) -> None:
    if instr.op is Opcode.CALL:
        callee = instr.callee
        if callee in module.functions:
            cg.callees[caller].add(callee)
            cg.callers[callee].add(caller)
            cg.sites.append(CallSite(caller, block, index, callee))
        else:
            # Keep the unresolved symbol name (diagnostics want it); the
            # ``is_extern`` flag is what marks the edge as external.
            cg.sites.append(
                CallSite(caller, block, index, callee or EXTERNAL, is_extern=True)
            )
    elif instr.op is Opcode.RPC:
        cg.sites.append(
            CallSite(caller, block, index, instr.service or EXTERNAL, is_rpc=True)
        )


def _tarjan_sccs(edges: dict[str, set[str]]) -> list[tuple[str, ...]]:
    """Tarjan's algorithm, iterative; SCCs emitted in reverse topological
    order (every SCC before any of its callers)."""
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[tuple[str, ...]] = []
    counter = 0

    for root in sorted(edges):
        if root in index_of:
            continue
        # Explicit DFS stack of (node, iterator position over successors).
        work: list[tuple[str, list[str], int]] = [(root, sorted(edges[root]), 0)]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs, pos = work.pop()
            advanced = False
            while pos < len(succs):
                nxt = succs[pos]
                pos += 1
                if nxt not in index_of:
                    work.append((node, succs, pos))
                    index_of[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, sorted(edges[nxt]), 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[nxt])
            if advanced:
                continue
            if lowlink[node] == index_of[node]:
                scc: list[str] = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    scc.append(top)
                    if top == node:
                        break
                sccs.append(tuple(sorted(scc)))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


__all__ = ["CallGraph", "CallSite", "EXTERNAL", "build_callgraph"]
