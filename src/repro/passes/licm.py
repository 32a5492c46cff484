"""Loop-invariant code motion.

Hoists pure, non-trapping instructions whose operands do not change inside
a loop into a freshly created preheader.  Because the IR is not SSA, the
pass restricts itself to **single-definition registers** (registers written
exactly once in the whole function — the frontend's expression temporaries
all qualify), which makes hoisting trivially sound: the hoisted instruction
computes the same value it would have computed on every iteration, and no
other definition can be clobbered.

This matters beyond compiler hygiene: address computations like
``gaddr @table`` + constant scaling are emitted inside loop bodies by the
frontend, and every hoisted instruction is one fewer dynamic instruction
per loop iteration for the SIMT interpreter *and* for the modeled issue
cycles — like the real toolchain, optimization affects measured kernel
time.

Pipeline position: after full inlining, before/interleaved with constant
folding and DCE (see :func:`repro.passes.pipeline.finalize_executable`).
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.cfg import CFG
from repro.analysis.loops import natural_loops
from repro.ir.instructions import Instr, Opcode
from repro.ir.module import Block, Function, Module
from repro.ir.types import Reg

#: Pure opcodes that can never trap and have no side effects.
_HOISTABLE = frozenset(
    {
        Opcode.MOVI,
        Opcode.MOVF,
        Opcode.MOV,
        Opcode.GADDR,
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.ASHR,
        Opcode.IMIN,
        Opcode.IMAX,
        Opcode.INEG,
        Opcode.BNOT,
        Opcode.FADD,
        Opcode.FSUB,
        Opcode.FMUL,
        Opcode.FDIV,  # IEEE: x/0 -> inf, no trap
        Opcode.FMIN,
        Opcode.FMAX,
        Opcode.FNEG,
        Opcode.FPOW,
        Opcode.SQRT,
        Opcode.EXP,
        Opcode.LOG,
        Opcode.SIN,
        Opcode.COS,
        Opcode.TAN,
        Opcode.FABS,
        Opcode.FLOOR,
        Opcode.CEIL,
        Opcode.SITOFP,
        Opcode.ICMP_EQ,
        Opcode.ICMP_NE,
        Opcode.ICMP_SLT,
        Opcode.ICMP_SLE,
        Opcode.ICMP_SGT,
        Opcode.ICMP_SGE,
        Opcode.FCMP_EQ,
        Opcode.FCMP_NE,
        Opcode.FCMP_LT,
        Opcode.FCMP_LE,
        Opcode.FCMP_GT,
        Opcode.FCMP_GE,
        Opcode.SELECT,
        Opcode.KPARAM,
        Opcode.TID,  # constant within a lane's execution
        Opcode.NTID,
        Opcode.CTAID,
        Opcode.NCTAID,
        Opcode.LANEID,
        Opcode.INSTANCE,
    }
)


def licm_pass(module: Module, pointsto=None) -> None:
    """Hoist loop-invariant single-definition values into loop preheaders.

    With a :class:`~repro.analysis.pointsto.PointsTo` solution (the
    ``-O2`` stage passes one), loads from provably read-only globals
    become hoistable too — see :func:`_readonly_load_candidates`.
    """
    for fn in module.functions.values():
        loads = (
            _readonly_load_candidates(module, fn, pointsto)
            if pointsto is not None
            else frozenset()
        )
        _licm_function(fn, loads)


def _readonly_load_candidates(module: Module, fn, pt) -> frozenset[int]:
    """``id()``s of LOAD instructions that are safe to speculate out of a
    loop: the address is a single-def ``gaddr`` of a global that is never
    written through *any* may-aliasing pointer anywhere in the module, is
    never handed to the host (RPC could write it), and the access is
    statically in bounds — so executing the load early (even when the
    loop would have run zero times) can neither trap nor observe a
    different value."""
    from repro.analysis.pointsto import WRITE_ADDR_POS, MemObject

    written: list = []
    for f in module.functions.values():
        for instr in f.iter_instrs():
            if instr.op in WRITE_ADDR_POS:
                written.append(pt.addr_objects(f.name, instr, written=True))

    def read_only(sym: str) -> bool:
        obj = MemObject("global", sym)
        if obj in pt.rpc_visible:
            return False
        return not any(pt.may_alias({obj}, objs) for objs in written)

    gaddr_defs: dict[int, list[Instr]] = {}
    for instr in fn.iter_instrs():
        if instr.dest is not None:
            gaddr_defs.setdefault(instr.dest.id, []).append(instr)

    out: set[int] = set()
    for instr in fn.iter_instrs():
        if instr.op is not Opcode.LOAD or not instr.args:
            continue
        addr = instr.args[0]
        if not isinstance(addr, Reg):
            continue
        defs = gaddr_defs.get(addr.id, [])
        if len(defs) != 1 or defs[0].op is not Opcode.GADDR:
            continue
        g = module.globals.get(defs[0].sym)
        if g is None or not (0 <= instr.offset and instr.offset + instr.mty.size <= g.nbytes):
            continue
        if read_only(defs[0].sym):
            out.add(id(instr))
    return frozenset(out)


def _licm_function(fn: Function, hoistable_loads: frozenset[int] = frozenset()) -> None:
    if len(fn.blocks) < 2:
        return
    loops = natural_loops(fn)
    if not loops:
        return

    # definition counts over the whole function (single-def = SSA-like)
    def_count: dict[int, int] = defaultdict(int)
    for instr in fn.iter_instrs():
        if instr.dest is not None:
            def_count[instr.dest.id] += 1
    for reg in fn.param_regs:
        def_count[reg.id] += 1

    # Headers are distinct, and a preheader only takes over edges into its
    # own header, so no hoist changes another header's predecessors.
    preds = CFG(fn).preds

    # natural_loops lists inner (smaller) loops first, so inner-hoisted
    # code can keep moving outward across runs of the pass
    for loop in loops:
        _hoist_loop(
            fn, loop.header, loop.body, preds[loop.header], def_count,
            hoistable_loads,
        )


def _hoist_loop(
    fn: Function,
    header: str,
    body: frozenset[str],
    header_preds: list[str],
    def_count: dict[int, int],
    hoistable_loads: frozenset[int] = frozenset(),
) -> None:
    # registers defined anywhere in the loop
    defined_in_loop: set[int] = set()
    loop_has_par = False
    for lbl in body:
        for instr in fn.blocks[lbl].instrs:
            if instr.dest is not None:
                defined_in_loop.add(instr.dest.id)
            if instr.op in (Opcode.PAR_BEGIN, Opcode.PAR_END):
                loop_has_par = True

    # A loop enclosing a parallel region: hoisting a lane-variant value
    # (tid/laneid) above the region's par_begin would let the region-entry
    # register broadcast clobber it with the initial thread's copy.
    banned = {Opcode.TID, Opcode.LANEID} if loop_has_par else set()

    hoisted: list[Instr] = []
    hoisted_ids: set[int] = set()

    changed = True
    while changed:
        changed = False
        for lbl in sorted(body):
            block = fn.blocks[lbl]
            kept: list[Instr] = []
            for instr in block.instrs:
                if instr.op not in banned and _can_hoist(
                    instr, defined_in_loop, hoisted_ids, def_count, hoistable_loads
                ):
                    hoisted.append(instr)
                    hoisted_ids.add(instr.dest.id)
                    changed = True
                else:
                    kept.append(instr)
            block.instrs = kept

    if not hoisted:
        return

    # Build the preheader and retarget the loop's outside entries.  A later
    # (alias-sharpened) run can hoist again out of a loop that already has a
    # preheader, so the label must be uniquified — assigning a duplicate
    # would silently overwrite the blocks entry while block_order gains a
    # second occurrence.
    label = f"licm.{header}"
    serial = 1
    while label in fn.blocks:
        serial += 1
        label = f"licm.{header}.{serial}"
    pre = Block(label)
    pre.instrs = hoisted + [Instr(Opcode.BR, targets=(header,))]
    fn.blocks[pre.label] = pre
    pos = fn.block_order.index(header)
    fn.block_order.insert(pos, pre.label)

    for plbl in header_preds:
        if plbl in body:
            continue  # back edges keep pointing at the header
        term = fn.blocks[plbl].terminator
        term.targets = tuple(
            pre.label if t == header else t for t in term.targets
        )


def _can_hoist(
    instr: Instr,
    defined_in_loop: set[int],
    hoisted_ids: set[int],
    def_count: dict[int, int],
    hoistable_loads: frozenset[int] = frozenset(),
) -> bool:
    if instr.dest is None:
        return False
    if instr.op not in _HOISTABLE and id(instr) not in hoistable_loads:
        return False
    if def_count[instr.dest.id] != 1:
        return False
    for a in instr.args:
        if isinstance(a, Reg):
            if a.id in defined_in_loop and a.id not in hoisted_ids:
                return False
            if def_count[a.id] != 1:
                return False
    return True
