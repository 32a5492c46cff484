"""Control-flow graph view of an IR function.

The IR stores control flow implicitly (each block's terminator names its
successor labels); every analysis in :mod:`repro.analysis` wants the
explicit graph: successors *and* predecessors, the set of blocks reachable
from the entry, a reverse-postorder traversal for fast dataflow
convergence, and the exit classification (returning vs. trapping blocks).

``CFG`` is a read-only snapshot: build it, query it, throw it away.  It
deliberately tolerates slightly malformed functions (branches to unknown
labels, missing terminators) so the lint checkers can run on IR the
verifier would reject — the verifier itself reuses ``CFG`` and reports
those problems with proper diagnostics.
"""

from __future__ import annotations

from functools import cached_property

from repro.ir.instructions import Opcode
from repro.ir.module import Function


class CFG:
    """Explicit control-flow graph of one :class:`~repro.ir.module.Function`.

    Attributes
    ----------
    entry:
        Label of the entry block.
    succs / preds:
        Adjacency maps over block labels.  Edges to labels that do not
        exist in the function are dropped (the verifier reports them).
    reachable:
        Labels reachable from the entry block.
    rpo:
        Reachable labels in reverse postorder (entry first); iterating
        forward dataflow in this order converges in few passes.
    return_blocks / trap_blocks:
        Reachable blocks terminated by ``ret``/``retval`` vs. ``trap``.
    """

    def __init__(self, fn: Function):
        self.fn = fn
        if not fn.block_order:
            raise ValueError(f"function {fn.name!r} has no blocks")
        self.entry: str = fn.block_order[0]
        self.succs: dict[str, tuple[str, ...]] = {}
        self.preds: dict[str, list[str]] = {label: [] for label in fn.block_order}
        returns: list[str] = []
        traps: list[str] = []
        for label in fn.block_order:
            term = fn.blocks[label].terminator
            if term is None:
                self.succs[label] = ()
                continue
            succ = tuple(t for t in term.targets if t in fn.blocks)
            self.succs[label] = succ
            for s in succ:
                self.preds[s].append(label)
            if term.op in (Opcode.RET, Opcode.RETVAL):
                returns.append(label)
            elif term.op is Opcode.TRAP:
                traps.append(label)

        self.reachable: frozenset[str] = frozenset(self.reachable_from(self.entry))
        self.return_blocks: frozenset[str] = self.reachable.intersection(returns)
        self.trap_blocks: frozenset[str] = self.reachable.intersection(traps)

    # ------------------------------------------------------------------
    def reachable_from(self, label: str) -> set[str]:
        """All labels reachable from ``label`` (inclusive) along CFG edges."""
        seen = {label}
        stack = [label]
        while stack:
            for s in self.succs.get(stack.pop(), ()):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return seen

    def can_reach(self, sources: set[str] | frozenset[str]) -> set[str]:
        """All labels from which some block in ``sources`` is reachable
        (inclusive); i.e. reachability on the reversed graph."""
        seen = set(sources)
        stack = list(sources)
        while stack:
            for p in self.preds.get(stack.pop(), ()):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    @cached_property
    def rpo(self) -> list[str]:
        """Reachable labels in reverse postorder, computed on first use
        (from :attr:`succs`, so still a snapshot of construction time)."""
        order: list[str] = []
        seen: set[str] = set()
        # Iterative DFS with an explicit "exit" marker so large CFGs do not
        # hit the Python recursion limit.
        stack: list[tuple[str, bool]] = [(self.entry, False)]
        while stack:
            label, done = stack.pop()
            if done:
                order.append(label)
                continue
            if label in seen:
                continue
            seen.add(label)
            stack.append((label, True))
            for s in reversed(self.succs[label]):
                if s not in seen:
                    stack.append((s, False))
        order.reverse()
        return order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CFG {self.fn.name}: {len(self.succs)} blocks, "
            f"{len(self.reachable)} reachable>"
        )
