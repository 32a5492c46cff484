"""Redundant-barrier elimination, driven by points-to analysis.

A ``barrier`` exists to order *cross-thread shared-memory communication*:
one thread writes, the team synchronizes, another thread reads.  Ported
CPU OpenMP code is full of barriers that order nothing — after the
implicit sync of a worksharing loop, around thread-private scratch
work, in sequential (initial-thread) sections — and on a GPU every one
of them costs a full team round-trip per instance.  This pass removes a
barrier when the analysis *proves* no communication spans it:

* a barrier at parallel depth 0 synchronizes a single thread (the
  sequential initial-thread region between ``par_end`` and the next
  ``par_begin``) — always removable;
* otherwise, compute the memory accesses in the barrier's *windows*:
  everything reachable backward / forward from the barrier without
  crossing another synchronization point (``barrier``, ``par_begin``/
  ``par_end``, team reductions).  The barrier is redundant iff no
  thread-shared object (per :class:`~repro.analysis.pointsto.PointsTo`
  spaces — anything except per-thread stack) is written in one window
  and accessed in the other.

Unknown pointers degrade to ⊤ and block removal; cross-lane register
exchange (``shfl_*``) in either window blocks removal; ``rpc`` and
residual ``call`` instructions count as read+write of ⊤.  Removal is
behavior-preserving by construction — a barrier only *orders* accesses,
and we keep every barrier that could order anything.
"""

from __future__ import annotations

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import par_depths
from repro.analysis.pointsto import (
    READ_ADDR_POS,
    UNKNOWN_OBJ,
    WRITE_ADDR_POS,
    MemSpace,
    PointsTo,
)
from repro.ir.instructions import SYNC_OPS, Instr, Opcode
from repro.ir.module import Function, Module

#: Instructions that cut an ordering window (every thread is known to
#: reconverge there, so communication cannot span past them *and* the
#: barrier under test at the same time).
_CUTS = frozenset(SYNC_OPS) | {Opcode.PAR_BEGIN}

#: Cross-lane register exchange: communication that never touches memory.
_SHFL = frozenset({Opcode.SHFL_DOWN, Opcode.SHFL_IDX})

_UNKNOWN = frozenset({UNKNOWN_OBJ})


def redundant_barrier_elim_pass(
    module: Module, pointsto: PointsTo | None = None, metrics=None
) -> None:
    """Drop every barrier proven to order no cross-thread communication."""
    pt = pointsto or PointsTo(module)
    removed = 0
    for fn in module.functions.values():
        removed += _process_function(fn, pt)
    if metrics is not None and removed:
        metrics.counter("passes.barrier_elim.removed").inc(removed)


def _process_function(fn: Function, pt: PointsTo) -> int:
    barriers = [
        (block.label, idx)
        for block in fn.iter_blocks()
        for idx, instr in enumerate(block.instrs)
        if instr.op is Opcode.BARRIER
    ]
    if not barriers:
        return 0
    cfg = CFG(fn)
    depths = par_depths(fn, cfg)
    doomed: list[tuple[str, int]] = []
    for label, idx in barriers:
        if label not in depths.depth_in:
            continue  # unreachable; cfg-simplify will drop the block
        if depths.depth_before(label, idx, fn) == 0:
            doomed.append((label, idx))  # single-threaded region
            continue
        before = _window(fn, cfg, label, idx, forward=False)
        after = _window(fn, cfg, label, idx, forward=True)
        if not _communicates(pt, fn.name, before, after):
            doomed.append((label, idx))
    # Delete back-to-front so earlier indices stay valid.
    for label, idx in sorted(doomed, reverse=True):
        del fn.blocks[label].instrs[idx]
    return len(doomed)


def _window(
    fn: Function, cfg: CFG, label: str, idx: int, *, forward: bool
) -> list[Instr]:
    """Instructions reachable from the barrier at ``(label, idx)`` without
    crossing a synchronization cut, in the given direction."""
    out: list[Instr] = []

    def scan(instrs) -> bool:
        """Collect until a cut; returns True if a cut stopped the scan."""
        for instr in instrs:
            if instr.op in _CUTS:
                return True
            out.append(instr)
        return False

    block = fn.blocks[label]
    tail = block.instrs[idx + 1 :] if forward else block.instrs[:idx][::-1]
    if scan(tail):
        return out
    edges = cfg.succs if forward else cfg.preds
    seen = {label}
    work = list(edges[label])
    while work:
        cur = work.pop()
        if cur in seen:
            continue
        seen.add(cur)
        instrs = fn.blocks[cur].instrs
        if not scan(instrs if forward else list(reversed(instrs))):
            work.extend(edges[cur])
    return out


def _shared(pt: PointsTo, objs) -> frozenset:
    """Restrict an object set to thread-shared objects (drop per-thread
    stack); ⊤ stays ⊤."""
    return frozenset(o for o in objs if pt.space(o) is not MemSpace.STACK)


def _effects(pt: PointsTo, fname: str, window: list[Instr]):
    """(writes, reads) as lists of thread-shared object sets, or None when
    the window contains communication we cannot reason about (shfl)."""
    writes: list[frozenset] = []
    reads: list[frozenset] = []
    for instr in window:
        if instr.op in _SHFL:
            return None
        if instr.op in (Opcode.RPC, Opcode.CALL):
            # Residual calls (non-kernel bodies) and host RPCs: the callee/
            # host may touch anything reachable — read+write ⊤.
            writes.append(_UNKNOWN)
            reads.append(_UNKNOWN)
            continue
        if instr.op in WRITE_ADDR_POS:
            objs = _shared(pt, pt.addr_objects(fname, instr, written=True))
            if objs:
                writes.append(objs)
        if instr.op in READ_ADDR_POS:
            objs = _shared(pt, pt.addr_objects(fname, instr, written=False))
            if objs:
                reads.append(objs)
    return writes, reads


def _communicates(
    pt: PointsTo, fname: str, before: list[Instr], after: list[Instr]
) -> bool:
    eb = _effects(pt, fname, before)
    ea = _effects(pt, fname, after)
    if eb is None or ea is None:
        return True  # shfl traffic: assume the barrier orders it
    for (writes, _), (other_writes, other_reads) in ((eb, ea), (ea, eb)):
        for w in writes:
            for acc in other_writes + other_reads:
                if pt.may_alias(w, acc):
                    return True
    return False


__all__ = ["redundant_barrier_elim_pass"]
