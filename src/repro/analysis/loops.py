"""Natural-loop detection.

The loop machinery lives here — shared by :mod:`repro.passes.licm` (which
needs loop bodies and preheader insertion points) and by kernel lowering
(:mod:`repro.runtime.machine`, whose loops the compiled backend runs as
regions).

A loop is the classic natural loop of a back edge ``latch -> header``
where ``header`` dominates ``latch``; loops sharing a header are merged.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.cfg import CFG
from repro.analysis.dominators import dominators
from repro.ir.module import Function


@dataclass(frozen=True)
class Loop:
    """One natural loop: its header label and the set of body labels
    (header included)."""

    header: str
    body: frozenset[str]

    def contains(self, label: str) -> bool:
        return label in self.body


def natural_loops(fn: Function) -> list[Loop]:
    """All natural loops of ``fn``, loops sharing a header merged,
    innermost (smallest body) first.

    Only reachable blocks take part: an edge out of an unreachable block
    is never a back edge, and a loop body never absorbs an unreachable
    predecessor."""
    cfg = CFG(fn)
    dom = dominators(cfg)
    merged: dict[str, set[str]] = defaultdict(set)
    for label in cfg.rpo:
        for header in cfg.succs[label]:
            if header not in dom[label]:
                continue
            body = {header, label}
            stack = [label]
            while stack:
                cur = stack.pop()
                if cur == header:
                    continue
                for p in cfg.preds[cur]:
                    if p not in body and p in cfg.reachable:
                        body.add(p)
                        stack.append(p)
            merged[header] |= body
    loops = [Loop(h, frozenset(b)) for h, b in merged.items()]
    loops.sort(key=lambda lp: (len(lp.body), lp.header))
    return loops


__all__ = ["Loop", "natural_loops"]
