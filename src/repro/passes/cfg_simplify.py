"""CFG cleanup: unreachable-block elimination and jump threading."""

from __future__ import annotations

from repro.analysis.cfg import CFG
from repro.ir.instructions import Opcode
from repro.ir.module import Function, Module


def cfg_simplify_pass(module: Module) -> None:
    """Thread jumps, fold constant branches, drop unreachable blocks."""
    for fn in module.functions.values():
        _thread_jumps(fn)
        # Folding only removes edges, so one sweep afterwards drops every
        # block either step made unreachable.
        _fold_constant_branches(fn)
        _drop_unreachable(fn)


def _drop_unreachable(fn: Function) -> None:
    reachable = CFG(fn).reachable
    for label in [l for l in fn.block_order if l not in reachable]:
        del fn.blocks[label]
        fn.block_order.remove(label)


def _thread_jumps(fn: Function) -> None:
    """Retarget branches that point at trivial forwarding blocks (single BR).

    Only forwarding blocks with a **single predecessor** are threaded: a
    multi-predecessor forwarding block is a control-flow *join*, and joins
    are exactly where the min-PC SIMT interpreter reconverges divergent
    lanes.  Threading a join away leaves the divergent groups permanently
    phase-shifted through subsequent loop iterations — correct but up to
    2x slower in both interpreter steps and modeled issue cycles (real
    GPUs lose reconvergence points the same way when compilers over-thread
    branches)."""
    preds = CFG(fn).preds

    def final_target(label: str, hops: int = 0) -> str:
        block = fn.blocks[label]
        if hops > len(fn.blocks):
            return label  # defensive: a cycle of empty jumps
        if (
            len(block.instrs) == 1
            and block.instrs[0].op is Opcode.BR
            and len(preds[label]) <= 1
        ):
            return final_target(block.instrs[0].targets[0], hops + 1)
        return label

    for block in fn.iter_blocks():
        term = block.terminator
        if term is not None and term.targets:
            term.targets = tuple(final_target(t) for t in term.targets)


def _fold_constant_branches(fn: Function) -> None:
    """Turn ``cbr`` on a block-local constant into ``br``."""
    for block in fn.iter_blocks():
        consts: dict[int, int] = {}
        for instr in block.instrs:
            if instr.op is Opcode.MOVI:
                consts[instr.dest.id] = int(instr.imm)
            elif instr.dest is not None:
                consts.pop(instr.dest.id, None)
            if instr.op is Opcode.CBR:
                cond = instr.args[0]
                if cond.id in consts:
                    taken = instr.targets[0] if consts[cond.id] else instr.targets[1]
                    instr.op = Opcode.BR
                    instr.args = ()
                    instr.targets = (taken,)
