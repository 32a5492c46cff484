"""Natural-loop detection and counted-loop (induction) pattern matching.

The loop machinery lives here — shared by :mod:`repro.passes.licm` (which
needs loop bodies and preheader insertion points), by
:mod:`repro.analysis.footprint` (which needs *trip-count bounds* to turn
"one ``malloc(n)`` inside a loop" into "at most ``k·n`` bytes") and by
kernel lowering (:mod:`repro.runtime.machine`, whose loops the compiled
backend runs as regions).

A loop is the classic natural loop of a back edge ``latch -> header``
where ``header`` dominates ``latch``; loops sharing a header are merged.
On top of that, :func:`match_counted_loop` recognizes the counted-loop
shape the frontend emits for ``for i in range(...)`` (and the strided
variant ``parallel_range`` emits):

.. code-block:: none

    header:   cond = icmp_slt ivar, bound   ; bound defined outside loop
              cbr cond, body, exit
    ...
    latch:    t = add ivar, step            ; step a constant (movi)
              ivar = mov t
              br header

yielding a symbolic :class:`CountedLoop` — induction register, constant
step, bound and initial-value registers.  It deliberately reports *only*
what is structurally certain; turning the symbols into numbers is the
range analysis' job (:func:`repro.analysis.ranges.trip_bound`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.cfg import CFG
from repro.analysis.dominators import dominators
from repro.ir.instructions import Opcode
from repro.ir.module import Function
from repro.ir.types import Reg

_STEP_CMPS = {
    Opcode.ICMP_SLT: (True, 1),  # (strict, required step sign)
    Opcode.ICMP_SLE: (False, 1),
    Opcode.ICMP_SGT: (True, -1),
    Opcode.ICMP_SGE: (False, -1),
}


@dataclass(frozen=True)
class Loop:
    """One natural loop: its header label and the set of body labels
    (header included)."""

    header: str
    body: frozenset[str]

    def contains(self, label: str) -> bool:
        return label in self.body


@dataclass(frozen=True)
class CountedLoop:
    """A structurally counted loop; all registers are symbolic.

    ``trips <= ceil((bound - init) / step)`` once the range analysis
    bounds ``bound`` from above and ``init`` from below (signs flipped
    for down-counting loops); ``strict=False`` (``<=``) adds one trip.
    """

    loop: Loop
    ivar: Reg
    bound: Reg
    init: Reg | int | None  #: constant, out-of-loop source reg, or unknown
    step: int
    strict: bool


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


def enclosing_loops(fn: Function, loops: list[Loop] | None = None) -> dict[str, list[Loop]]:
    """Block label -> the loops containing it, innermost first."""
    if loops is None:
        loops = natural_loops(fn)
    out: dict[str, list[Loop]] = {lbl: [] for lbl in fn.block_order}
    for loop in loops:  # already innermost-first
        for lbl in loop.body:
            out[lbl].append(loop)
    return out


def _defs_of(fn: Function, reg: Reg):
    """(block label, instr) pairs defining ``reg``."""
    for block in fn.iter_blocks():
        for instr in block.instrs:
            if instr.dest is not None and instr.dest.id == reg.id:
                yield block.label, instr


def _const_of(fn: Function, reg: Reg) -> int | None:
    """The constant value of a single-def MOVI register, else None."""
    defs = list(_defs_of(fn, reg))
    if len(defs) == 1 and defs[0][1].op is Opcode.MOVI:
        return int(defs[0][1].imm)
    return None


def match_counted_loop(fn: Function, loop: Loop) -> CountedLoop | None:
    """Recognize the frontend's counted-loop shape, or return None.

    Requirements (each one is what makes the trip bound *sound*):

    * the header's CBR condition is an integer compare computed in the
      header, ``ivar <op> bound``;
    * every definition of ``bound`` is outside the loop (the bound is
      loop-invariant);
    * every definition of ``ivar`` inside the loop is ``mov ivar, t``
      with ``t = add ivar, c`` (or ``add c, ivar``) for one constant
      ``c`` whose sign matches the compare direction — the induction
      variable makes strict progress toward the bound on every path
      that re-enters the header.
    """
    header = fn.blocks[loop.header]
    term = header.terminator
    if term is None or term.op is not Opcode.CBR:
        return None
    cond = term.args[0] if term.args else None
    if not isinstance(cond, Reg):
        return None
    cmp_instr = None
    for instr in header.instrs:
        if instr.dest is not None and instr.dest.id == cond.id:
            cmp_instr = instr
    if cmp_instr is None or cmp_instr.op not in _STEP_CMPS:
        return None
    strict, want_sign = _STEP_CMPS[cmp_instr.op]
    regs = [a for a in cmp_instr.args if isinstance(a, Reg)]
    if len(regs) != 2:
        return None
    ivar, bound = regs

    # The bound must be loop-invariant.
    if any(lbl in loop.body for lbl, _ in _defs_of(fn, bound)):
        return None

    in_defs = [(lbl, i) for lbl, i in _defs_of(fn, ivar) if lbl in loop.body]
    out_defs = [(lbl, i) for lbl, i in _defs_of(fn, ivar) if lbl not in loop.body]
    if not in_defs:
        return None
    step: int | None = None
    for _lbl, mov in in_defs:
        if mov.op is not Opcode.MOV:
            return None
        src = mov.args[0]
        if not isinstance(src, Reg):
            return None
        src_defs = [i for _l, i in _defs_of(fn, src)]
        if len(src_defs) != 1 or src_defs[0].op is not Opcode.ADD:
            return None
        add = src_defs[0]
        a, b = add.args
        if isinstance(a, Reg) and a.id == ivar.id and isinstance(b, Reg):
            c = _const_of(fn, b)
            step_src = b
        elif isinstance(b, Reg) and b.id == ivar.id and isinstance(a, Reg):
            c = _const_of(fn, a)
            step_src = a
        else:
            return None
        if c is None and want_sign > 0:
            # The strided worksharing loop steps by ``ntid`` (>= 1): use 1,
            # a lower bound on the increment, hence an upper bound on trips.
            sdefs = [i for _l, i in _defs_of(fn, step_src)]
            if len(sdefs) == 1 and sdefs[0].op is Opcode.NTID:
                c = 1
        if c is None or c == 0 or (1 if c > 0 else -1) != want_sign:
            return None
        # Several increments (continue paths): the smallest magnitude
        # still bounds the trip count from above.
        step = c if step is None else (min(step, c) if c > 0 else max(step, c))

    init: Reg | int | None = None
    if len(out_defs) == 1:
        src_instr = out_defs[0][1]
        if src_instr.op is Opcode.MOVI:
            init = int(src_instr.imm)
        elif src_instr.op is Opcode.MOV and isinstance(src_instr.args[0], Reg):
            init = src_instr.args[0]
        elif src_instr.op is Opcode.TID and want_sign > 0:
            init = 0  # tid >= 0: a sound *lower* bound, valid only up-counting
    return CountedLoop(
        loop=loop, ivar=ivar, bound=bound, init=init, step=step or want_sign,
        strict=strict,
    )


__all__ = [
    "CountedLoop",
    "Loop",
    "enclosing_loops",
    "match_counted_loop",
    "natural_loops",
]
