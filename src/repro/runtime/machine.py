"""Lowering: IR functions -> flat executable form for the interpreter.

Lowering performs:

* **reverse post-order layout** (DFS visiting successors in reverse order),
  which for the structured CFGs our frontend emits guarantees that join
  blocks (loop exits, if-merges, ``par_end``) are placed after every block
  that can still reach them — the invariant min-PC lockstep scheduling
  relies on for barrier/reduction reconvergence;
* **register bank assignment**: virtual registers split into an i64 bank
  and an f64 bank with dense indices;
* **branch resolution**: labels become absolute instruction indices;
* rejection of leftover ``call`` instructions (the inliner must have run);
* **loop discovery**: the function's natural loops, recorded as PC sets
  for the compiled backend's loop regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DeviceError, IRError
from repro.ir.instructions import Instr, Opcode
from repro.ir.module import Function
from repro.ir.types import Reg, ScalarType


@dataclass(slots=True)
class LInstr:
    """A lowered instruction: operands resolved to (bank, index) pairs."""

    op: Opcode
    dest: int  # dense index in its bank; -1 if none
    dest_f: bool  # dest bank is the float bank
    args: tuple  # tuple of (is_float, index)
    imm: object
    mty: object
    offset: int
    sym: str | None
    service: str | None
    targets: tuple  # absolute pcs
    loc: object = None  # source (line, col) carried from Instr.meta, if any


@dataclass
class LoweredKernel:
    name: str
    code: list[LInstr]
    num_iregs: int
    num_fregs: int
    param_slots: list[tuple[bool, int]]  # (is_float, bank index) per parameter
    uses_parallel: bool
    source_instructions: int
    #: Per-backend compiled artifacts (e.g. the ``compiled`` engine's
    #: block-table program), built lazily on first use and shared by
    #: every executor of this kernel.
    backend_cache: dict = field(default_factory=dict)
    #: The function's natural loops as ``(header pc, body pcs)``, loops
    #: sharing a header merged (:func:`repro.analysis.loops.natural_loops`).
    loops: tuple[tuple[int, frozenset[int]], ...] = ()

    @property
    def num_regs(self) -> int:
        return self.num_iregs + self.num_fregs


def _rpo_order(fn: Function) -> list[str]:
    """Reverse post-order with successors visited in reverse order."""
    seen: set[str] = set()
    post: list[str] = []

    def dfs(label: str) -> None:
        # iterative DFS to survive deep inlined CFGs
        stack: list[tuple[str, int]] = [(label, 0)]
        seen.add(label)
        while stack:
            cur, idx = stack[-1]
            succs = tuple(reversed(fn.blocks[cur].successors()))
            if idx < len(succs):
                stack[-1] = (cur, idx + 1)
                nxt = succs[idx]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                post.append(cur)
                stack.pop()

    dfs(fn.block_order[0])
    order = list(reversed(post))
    # unreachable blocks are dropped (cfg_simplify usually removed them)
    return order


def lower_kernel(
    fn: Function, *, tracer=None, metrics=None, loops: bool = True
) -> LoweredKernel:
    """Lower a call-free function into executable form.

    ``loops=False`` leaves :attr:`LoweredKernel.loops` empty: only the
    compiled backend's loop regions read it, and the safety analysis,
    which lowers every kernel of every cold compile, need not pay for it.

    With an enabled :class:`~repro.obs.Tracer` the lowering is recorded
    as a wall-clock span on the ``compiler`` track; with a
    :class:`~repro.obs.MetricsRegistry` it publishes kernel/instruction
    counts (lowering happens lazily at first launch, so it belongs on the
    same timeline as the launches it delays).
    """
    if tracer is not None and tracer.enabled:
        with tracer.span(f"lower {fn.name}", track="compiler", cat="lowering"):
            kern = _lower_kernel(fn, loops)
    else:
        kern = _lower_kernel(fn, loops)
    if metrics is not None:
        metrics.counter("lower.kernels").inc()
        metrics.counter("lower.instructions").inc(len(kern.code))
    return kern


def _lower_kernel(fn: Function, loops: bool) -> LoweredKernel:
    # --- register banks ----------------------------------------------------
    imap: dict[int, int] = {}
    fmap: dict[int, int] = {}

    def slot(reg: Reg) -> tuple[bool, int]:
        if reg.ty is ScalarType.F64:
            idx = fmap.setdefault(reg.id, len(fmap))
            return True, idx
        idx = imap.setdefault(reg.id, len(imap))
        return False, idx

    param_slots = [slot(r) for r in fn.param_regs]

    order = _rpo_order(fn)
    pcs: dict[str, int] = {}
    pc = 0
    for label in order:
        pcs[label] = pc
        pc += len(fn.blocks[label].instrs)

    code: list[LInstr] = []
    uses_parallel = False
    for label in order:
        for instr in fn.blocks[label].instrs:
            if instr.op is Opcode.CALL:
                raise DeviceError(
                    f"kernel {fn.name!r} still contains a call to "
                    f"{instr.callee!r}; run finalize_executable first"
                )
            if instr.op is Opcode.PAR_BEGIN:
                uses_parallel = True
            dest = -1
            dest_f = False
            if instr.dest is not None:
                dest_f, dest = slot(instr.dest)
            args = tuple(slot(a) for a in instr.args if isinstance(a, Reg))
            if len(args) != len(instr.args):
                raise IRError(
                    f"non-register operand in {instr.op.name} of {fn.name!r}"
                )
            targets = tuple(pcs[t] for t in instr.targets)
            code.append(
                LInstr(
                    op=instr.op,
                    dest=dest,
                    dest_f=dest_f,
                    args=args,
                    imm=instr.imm,
                    mty=instr.mty,
                    offset=instr.offset,
                    sym=instr.sym,
                    service=instr.service,
                    targets=targets,
                    loc=instr.meta.get("loc"),
                )
            )
    from repro.analysis.loops import natural_loops

    natural = natural_loops(fn) if loops else ()
    return LoweredKernel(
        name=fn.name,
        code=code,
        num_iregs=len(imap),
        num_fregs=len(fmap),
        param_slots=param_slots,
        uses_parallel=uses_parallel,
        source_instructions=len(code),
        loops=tuple(
            (
                pcs[lp.header],
                frozenset(
                    pc
                    for label in lp.body
                    for pc in range(
                        pcs[label], pcs[label] + len(fn.blocks[label].instrs)
                    )
                ),
            )
            for lp in natural
        ),
    )
