"""Compiled execution backend: basic blocks and loops as ``compile()``d
closures.

The interpreter's uniform fast path still pays, per instruction, one
handler call, one CPI lookup, one branch-table probe, and a boolean-mask
fancy-index per operand.  This backend removes that per-instruction
overhead for straight-line code:

* **Block table** — leaders are instruction 0, every branch target, and
  the successor of every control instruction.  Each leader's maximal
  straight-line run (up to the next branch/control instruction) becomes
  one generated Python function, compiled once per kernel with
  ``compile()`` on the block's first call; a team makes it a function
  over its own namespace (``types.FunctionType``, globals = the team's
  register rows and views) on its own first call (threaded code: the
  run loop jumps block to block through a dict keyed by PC).
* **Warp-level vectorization** — each block function carries two bodies.
  When every lane of the padded block is runnable (``full``, the steady
  state inside parallel regions), operations run over whole register
  rows with ``out=`` ufuncs — no mask materialization at all.  Otherwise
  the body replays the interpreter's own pre-specialized handlers, so
  masked semantics are identical by construction.
* **Scalar tier** — sequential code (argument parsing, libc, set-up
  loops) runs on each instance's initial thread alone: one runnable
  lane ``k``.  Then the run loop calls a third body, ``_blk1_{leader}``,
  that keeps lane ``k``'s registers in Python locals as numpy
  ``int64``/``float64`` scalars and reads or writes one element per
  memory operation, under the same guards, ``on_mem`` events and step
  accounting; loop regions get a one-lane twin, ``_loop1_{header}``,
  with no divergence exit.  Every expression computes the masked
  body's bits (docs/backends.md lists the hazards).  Scalar code is
  generated per block and per region on first one-lane entry.
* **Loop regions** — each innermost natural loop with no control op in
  it (a header, acyclic body blocks, back edges to the header) also
  becomes one generated ``_loop{header}`` function: a native ``while``
  over ``if b == <leader>`` arms holding the blocks' full-row bodies.
  The run loop enters it when every lane is runnable and the PC sits on
  the header, and takes over again when the loop exits, a CBR's lanes
  disagree (one ``count_nonzero`` of the condition row tells) or the
  step cap is near.  Steps, livelock checks and issue cycles are those
  of block dispatch, summed in locals and noted once per region.  A
  region's code is generated on its first entry (many loops, such as
  argument parsing, never run with every lane runnable), then kept on
  the kernel's program like the block code.
* **Shared everything else** — this class *is* a
  :class:`~repro.runtime.interpreter.BlockExecutor` subclass: memory
  model, RPC ring, fault-injection points, divergent-path scheduling,
  parallel-region machinery, and trap behavior are inherited, not
  reimplemented.  Trace aggregates are preserved exactly: a block
  contributes the same cycle/instruction totals via
  :meth:`~repro.runtime.trace.TraceCollector.note_uniform_block` (or,
  for a divergent group, ``note_divergent_block``) that per-instruction
  ``note_uniform``/``on_instr`` calls would, and memory events fire in
  the same order with the same lane/address sets.

The only observable difference is block granularity: the ``max_steps``
livelock guard is checked per block rather than per instruction, so a
trap may be raised up to one basic block later than the interpreter
would, and a team that traps mid-block has the whole block's issue
cycles noted (whether a launch traps at all is unchanged — see
docs/backends.md).

Compiled artifacts are cached on
:attr:`~repro.runtime.machine.LoweredKernel.backend_cache`, so the
codegen + ``compile()`` cost is paid once per kernel, not per team; so
are the dispatch tables and the names each team's namespace binds
(:class:`_StaticTables`).  With an enabled tracer, each generation is a
``codegen <kernel>`` span on the ``compiler`` track (a region's carries
its header as ``region``, a one-lane region's also ``scalar=True``, a
one-lane block's its leader as ``scalar``).
"""

from __future__ import annotations

import builtins
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from types import FunctionType

import numpy as np

from repro.analysis.safety import Verdict
from repro.errors import DeviceTrap, MemoryFault
from repro.gpu.memory import NULL_GUARD
from repro.ir.instructions import Opcode
from repro.ir.types import MemType
from repro.runtime.interpreter import (
    RUNNABLE,
    _CONTROL_OPS,
    _FCMP_FUNCS,
    _FLT_BIN_FUNCS,
    _ICMP_FUNCS,
    _INT_BIN_FUNCS,
    _MATH_FUNCS,
    _SYNC_OPS,
    BlockContext,
    BlockExecutor,
)
from repro.runtime.machine import LInstr, LoweredKernel

#: Key under which the compiled program is cached on the kernel.
CACHE_KEY = "compiled"

#: backend_cache key the device uses to attach the kernel's
#: :class:`~repro.analysis.safety.SafetyCertificate` (stamped into module
#: metadata at build time) for safety-mode-aware codegen.
SAFETY_CERT_KEY = "safety.cert"

#: numpy ufunc spellings for the binary ops the full-row body inlines.
_UFUNC_NAMES = {
    Opcode.ADD: "np.add",
    Opcode.SUB: "np.subtract",
    Opcode.MUL: "np.multiply",
    Opcode.AND: "np.bitwise_and",
    Opcode.OR: "np.bitwise_or",
    Opcode.XOR: "np.bitwise_xor",
    Opcode.IMIN: "np.minimum",
    Opcode.IMAX: "np.maximum",
    Opcode.FADD: "np.add",
    Opcode.FSUB: "np.subtract",
    Opcode.FMUL: "np.multiply",
    Opcode.FDIV: "np.divide",
    Opcode.FMIN: "np.minimum",
    Opcode.FMAX: "np.maximum",
    Opcode.FPOW: "np.power",
    Opcode.ICMP_EQ: "np.equal",
    Opcode.ICMP_NE: "np.not_equal",
    Opcode.ICMP_SLT: "np.less",
    Opcode.ICMP_SLE: "np.less_equal",
    Opcode.ICMP_SGT: "np.greater",
    Opcode.ICMP_SGE: "np.greater_equal",
    Opcode.FCMP_EQ: "np.equal",
    Opcode.FCMP_NE: "np.not_equal",
    Opcode.FCMP_LT: "np.less",
    Opcode.FCMP_LE: "np.less_equal",
    Opcode.FCMP_GT: "np.greater",
    Opcode.FCMP_GE: "np.greater_equal",
    Opcode.SQRT: "np.sqrt",
    Opcode.EXP: "np.exp",
    Opcode.LOG: "np.log",
    Opcode.SIN: "np.sin",
    Opcode.COS: "np.cos",
    Opcode.TAN: "np.tan",
    Opcode.FABS: "np.absolute",
    Opcode.FLOOR: "np.floor",
    Opcode.CEIL: "np.ceil",
    Opcode.FNEG: "np.negative",
    Opcode.INEG: "np.negative",
    Opcode.BNOT: "np.invert",
}

_UNARY_OPS = set(_MATH_FUNCS) | {Opcode.INEG, Opcode.BNOT}
_BINARY_OPS = (
    set(_INT_BIN_FUNCS)
    | set(_FLT_BIN_FUNCS)
    | set(_ICMP_FUNCS)
    | set(_FCMP_FUNCS)
)


@dataclass
class CompiledProgram:
    """The per-kernel artifact: generated source, and code objects
    compiled from it on first use.

    ``blocks`` maps each leader PC to ``(end_pc, n_instrs, issue_cycles)``
    — the straight-line body ``[leader, end_pc)`` plus its precomputed
    trace contribution.  ``end_pc`` always lands on a branch/control
    instruction, which the run loop handles with the interpreter's own
    uniform logic.  ``block_source`` holds each block's row function
    (``source`` joins them); :func:`block_code` compiles one on its
    first call into ``block_code``.  ``regions`` maps the header of each
    loop that runs as one ``_loop{header}`` function to its member
    leaders (see :func:`_emit_region`); ``full_src`` keeps each block's
    full-row body for them.  A region's source and code object are
    generated by :func:`region_code` on first request and kept in
    ``region_source`` and ``region_code``.

    The scalar tier (one runnable lane) is generated the same way, from
    ``sites`` (the certificate's per-PC proofs) and ``safety_mode``:
    :func:`block_code` with ``scalar=True`` keeps each block's
    ``_blk1_{leader}`` in ``scalar_source``/``scalar_code``, and
    :func:`region_code` with ``scalar=True`` each region's
    ``_loop1_{header}`` in ``region1_source``/``region1_code``.
    """

    block_source: dict[int, str]
    blocks: dict[int, tuple[int, int, float]]
    regions: dict[int, list[int]]
    full_src: dict[int, list[str]]
    sites: dict
    safety_mode: str
    block_code: dict[int, tuple] = field(default_factory=dict)
    region_source: dict[int, str] = field(default_factory=dict)
    region_code: dict[int, object] = field(default_factory=dict)
    region1_source: dict[int, str] = field(default_factory=dict)
    region1_code: dict[int, tuple] = field(default_factory=dict)
    scalar_source: dict[int, str] = field(default_factory=dict)
    scalar_code: dict[int, tuple] = field(default_factory=dict)

    @property
    def source(self) -> str:
        """Every block's row function, in leader order."""
        return "".join(self.block_source.values())


@contextmanager
def _codegen_span(tracer, kernel: LoweredKernel, **args):
    """One ``codegen <kernel>`` span on the ``compiler`` track when
    ``tracer`` records, else nothing."""
    if tracer is None or not tracer.enabled:
        yield
        return
    with tracer.span(
        f"codegen {kernel.name}", track="compiler", cat="codegen", **args
    ):
        yield


def _reg(operand: tuple[bool, int]) -> str:
    is_f, idx = operand
    return f"F{idx}" if is_f else f"I{idx}"


def _block_leaders(kernel: LoweredKernel, is_stop: list[bool]) -> set[int]:
    leaders = {0}
    for pc, li in enumerate(kernel.code):
        if li.op in (Opcode.BR, Opcode.CBR):
            leaders.update(li.targets)
        if is_stop[pc] and pc + 1 < len(kernel.code):
            leaders.add(pc + 1)
    return leaders


def _emit_memop(
    li: LInstr,
    pc: int,
    out: list[str],
    d: str | None,
    sel: str,
    lids: str,
    proof=None,
    mode: str = "checked",
) -> None:
    """Append the LOAD/STORE tail (``_adr`` already assigned) for one
    instruction; ``sel`` is ``""`` (full row) or ``"[mask]"``.

    Every site takes an inline gather/scatter: the null-guard and
    alignment checks collapse to two reductions on literal constants, the
    element view is pre-bound per site (``_mv{pc}``), and numpy's cast-on-
    assignment replaces the explicit ``astype``.  Check failures re-run the
    access through :meth:`GlobalMemory._indices` so fault messages are
    byte-identical to the interpreter's.  Timed runs then hand the lanes
    and addresses to ``on_mem``, exactly as the interpreter's handlers do.

    With a :class:`~repro.analysis.safety.SiteProof` and
    ``mode="unchecked"``, PROVEN null+alignment drops the guard entirely,
    and PROVEN bounds additionally drops the end-of-heap backstop.
    ``mode="assert"`` keeps every guard but reports a firing at a PROVEN
    site as a certificate violation.
    """
    size = li.mty.size
    idx = f"_adr >> {size.bit_length() - 1}" if size > 1 else "_adr"
    align = (
        f" or (int(np.bitwise_or.reduce(_adr)) & {size - 1})" if size > 1 else ""
    )
    store_src = None if li.op is Opcode.LOAD else _reg(li.args[1])
    proven = (
        proof is not None
        and proof.null is Verdict.PROVEN
        and proof.align is Verdict.PROVEN
    )
    bounds_proven = proven and proof.bounds is Verdict.PROVEN
    access = (
        f"{d}{sel or '[:]'} = _mv{pc}[{idx}]"
        if store_src is None
        else f"_mv{pc}[{idx}] = {store_src}{sel}"
    )
    if mode == "unchecked" and proven:
        if bounds_proven:
            out.append(access)
        else:
            out.append("try:")
            out.append(f"    {access}")
            out.append("except IndexError:")
            out.append("    _trap(_mem._beyond_end(_adr).message, mask)")
    else:
        # checked / assert: the guarded emission.  In assert mode a guard
        # firing where the certificate says it cannot is an analyzer bug;
        # surface it as such instead of an ordinary memory fault.
        g_pfx = _VIOLATED if mode == "assert" and proven else ""
        b_pfx = _VIOLATED if mode == "assert" and bounds_proven else ""
        out.append(f"if int(_adr.min()) < {NULL_GUARD}{align}:")
        out.append("    try:")
        out.append(f"        _mem._indices(_adr, _mty{pc})")
        out.append("    except _MF as _exc:")
        out.append(f"        _trap({g_pfx}_exc.message, mask)")
        out.append("try:")
        out.append(f"    {access}")
        out.append("except IndexError:")
        out.append(f"    _trap({b_pfx}_mem._beyond_end(_adr).message, mask)")
    out.append("if _C is not None:")
    out.append(f"    _C.on_mem({lids}, _adr, {size})")


def _trap_elidable(proof, mode: str) -> bool:
    return (
        mode == "unchecked"
        and proof is not None
        and proof.trap is Verdict.PROVEN
    )


#: Trap-message prefix (as emitted source) for a guard that fired at a
#: site its certificate PROVEs safe (assert mode).
_VIOLATED = "'safety certificate violated: ' + "


def _trap_prefix(proof, mode: str) -> str:
    if mode == "assert" and proof is not None and proof.trap is Verdict.PROVEN:
        return _VIOLATED
    return ""


def _emit_full(
    li: LInstr, pc: int, out: list[str], proof=None, mode: str = "checked"
) -> None:
    """Append the full-row (all lanes runnable) body for one instruction.

    Falls back to the interpreter handler (``H[pc](mask)``) for ops with
    lane-serial or stateful semantics (RPC, atomics, stack allocation,
    shuffles, division traps...) — the handler receives the full mask, so
    behavior is identical to the interpreter's.
    """
    op = li.op
    if op in _BINARY_OPS:
        a, b = _reg(li.args[0]), _reg(li.args[1])
        out.append(f"{_UFUNC_NAMES[op]}({a}, {b}, out={_reg((li.dest_f, li.dest))})")
        return
    if op in _UNARY_OPS:
        a = _reg(li.args[0])
        out.append(f"{_UFUNC_NAMES[op]}({a}, out={_reg((li.dest_f, li.dest))})")
        return
    d = _reg((li.dest_f, li.dest)) if li.dest >= 0 else None
    if op in (Opcode.SHL, Opcode.ASHR):
        a, b = _reg(li.args[0]), _reg(li.args[1])
        sh = "<<" if op is Opcode.SHL else ">>"
        out.append(f"{d}[:] = {a} {sh} ({b} & 63)")
        return
    if op in (Opcode.SDIV, Opcode.SREM):
        a, b = _reg(li.args[0]), _reg(li.args[1])
        if not _trap_elidable(proof, mode):
            pfx = _trap_prefix(proof, mode)
            out.append(f"if ({b} == 0).any():")
            out.append(f'    _trap({pfx}"integer division by zero", mask)')
        out.append(f"_q = np.sign({a}) * np.sign({b}) * (np.abs({a}) // np.abs({b}))")
        if op is Opcode.SREM:
            out.append(f"{d}[:] = {a} - _q * {b}")
        else:
            out.append(f"{d}[:] = _q")
        return
    if op is Opcode.FPTOSI:
        a = _reg(li.args[0])
        if not _trap_elidable(proof, mode):
            pfx = _trap_prefix(proof, mode)
            out.append(f"if not np.isfinite({a}).all():")
            out.append(
                f'    _trap({pfx}"float-to-int conversion of non-finite value", mask)'
            )
        out.append(f"{d}[:] = np.trunc({a})")
        return
    if op is Opcode.SITOFP:
        out.append(f"{d}[:] = {_reg(li.args[0])}")
        return
    if op is Opcode.MOVI:
        out.append(f"{d}[:] = {int(li.imm)}")
        return
    if op is Opcode.MOVF:
        value = float(li.imm)
        if value == value and value not in (float("inf"), float("-inf")):
            out.append(f"{d}[:] = {value!r}")
        else:  # inf/nan have no source-literal spelling
            out.append(f"H[{pc}](mask)")
        return
    if op is Opcode.MOV:
        out.append(f"{d}[:] = {_reg(li.args[0])}")
        return
    if op is Opcode.SELECT:
        c, a, b = (_reg(x) for x in li.args[:3])
        out.append(f"{d}[:] = np.where({c} != 0, {a}, {b})")
        return
    if op in (Opcode.LOAD, Opcode.STORE):
        a = _reg(li.args[0])
        addr = f"{a} + {li.offset}" if li.offset else a
        out.append(f"_adr = {addr}")
        _emit_memop(li, pc, out, d, "", "_lids", proof, mode)
        return
    if op is Opcode.GADDR:
        out.append(f"{d}[:] = _resolve({li.sym!r})")
        return
    if op is Opcode.KPARAM:
        out.append(f"{d}[:] = _kp{pc}")
        return
    if op is Opcode.TID:
        out.append(f"{d}[:] = _lii")
        return
    if op is Opcode.NTID:
        out.append(f"{d}[:] = _tpi")
        return
    if op is Opcode.CTAID:
        out.append(f"{d}[:] = _team")
        return
    if op is Opcode.NCTAID:
        out.append(f"{d}[:] = _nteams")
        return
    if op is Opcode.LANEID:
        out.append(f"{d}[:] = _lids % _ws")
        return
    if op is Opcode.INSTANCE:
        out.append(f"{d}[:] = _gi")
        return
    # SDIV/SREM/FPTOSI (trap checks), SALLOC (stack state), atomics,
    # shuffles, RPC, MEMCPY/MEMSET: interpreter handler, full mask.
    out.append(f"H[{pc}](mask)")


def _emit_masked(
    li: LInstr, pc: int, out: list[str], proof=None, mode: str = "checked"
) -> None:
    """Append the masked (partial lane set) body for one instruction.

    Same numpy expressions the interpreter's pre-specialized handlers
    evaluate, emitted inline — sequential phases (one runnable lane per
    instance) spend their whole life on this path, so skipping the
    per-instruction handler call matters.  Complex ops dispatch to the
    interpreter handler exactly as the full-row body does.
    """
    op = li.op
    d = _reg((li.dest_f, li.dest)) if li.dest >= 0 else None
    if op in _BINARY_OPS:
        a, b = _reg(li.args[0]), _reg(li.args[1])
        out.append(f"{d}[mask] = {_UFUNC_NAMES[op]}({a}[mask], {b}[mask])")
        return
    if op in _UNARY_OPS:
        a = _reg(li.args[0])
        out.append(f"{d}[mask] = {_UFUNC_NAMES[op]}({a}[mask])")
        return
    if op in (Opcode.SHL, Opcode.ASHR):
        a, b = _reg(li.args[0]), _reg(li.args[1])
        sh = "<<" if op is Opcode.SHL else ">>"
        out.append(f"{d}[mask] = {a}[mask] {sh} ({b}[mask] & 63)")
        return
    if op in (Opcode.SDIV, Opcode.SREM):
        a, b = _reg(li.args[0]), _reg(li.args[1])
        out.append(f"_av = {a}[mask]")
        out.append(f"_bv = {b}[mask]")
        if not _trap_elidable(proof, mode):
            pfx = _trap_prefix(proof, mode)
            out.append("if (_bv == 0).any():")
            out.append(f'    _trap({pfx}"integer division by zero", mask)')
        out.append("_q = np.sign(_av) * np.sign(_bv) * (np.abs(_av) // np.abs(_bv))")
        if op is Opcode.SREM:
            out.append(f"{d}[mask] = _av - _q * _bv")
        else:
            out.append(f"{d}[mask] = _q")
        return
    if op is Opcode.FPTOSI:
        a = _reg(li.args[0])
        out.append(f"_av = {a}[mask]")
        if not _trap_elidable(proof, mode):
            pfx = _trap_prefix(proof, mode)
            out.append("if not np.isfinite(_av).all():")
            out.append(
                f'    _trap({pfx}"float-to-int conversion of non-finite value", mask)'
            )
        out.append(f"{d}[mask] = np.trunc(_av)")
        return
    if op is Opcode.SITOFP:
        out.append(f"{d}[mask] = {_reg(li.args[0])}[mask]")
        return
    if op is Opcode.MOVI:
        out.append(f"{d}[mask] = {int(li.imm)}")
        return
    if op is Opcode.MOVF:
        value = float(li.imm)
        if value == value and value not in (float("inf"), float("-inf")):
            out.append(f"{d}[mask] = {value!r}")
        else:  # inf/nan have no source-literal spelling
            out.append(f"H[{pc}](mask)")
        return
    if op is Opcode.MOV:
        out.append(f"{d}[mask] = {_reg(li.args[0])}[mask]")
        return
    if op is Opcode.SELECT:
        c, a, b = (_reg(x) for x in li.args[:3])
        out.append(f"{d}[mask] = np.where({c}[mask] != 0, {a}[mask], {b}[mask])")
        return
    if op in (Opcode.LOAD, Opcode.STORE):
        a = _reg(li.args[0])
        addr = f"{a}[mask] + {li.offset}" if li.offset else f"{a}[mask]"
        out.append(f"_adr = {addr}")
        _emit_memop(li, pc, out, d, "[mask]", "_lids[mask]", proof, mode)
        return
    if op is Opcode.GADDR:
        out.append(f"{d}[mask] = _resolve({li.sym!r})")
        return
    if op is Opcode.KPARAM:
        out.append(f"{d}[mask] = _kp{pc}")
        return
    if op is Opcode.TID:
        out.append(f"{d}[mask] = _lii[mask]")
        return
    if op is Opcode.NTID:
        out.append(f"{d}[mask] = _tpi")
        return
    if op is Opcode.CTAID:
        out.append(f"{d}[mask] = _team")
        return
    if op is Opcode.NCTAID:
        out.append(f"{d}[mask] = _nteams")
        return
    if op is Opcode.LANEID:
        out.append(f"{d}[mask] = _lids[mask] % _ws")
        return
    if op is Opcode.INSTANCE:
        out.append(f"{d}[mask] = _gi[mask]")
        return
    out.append(f"H[{pc}](mask)")


def _local(operand: tuple[bool, int]) -> str:
    """The scalar tier's Python local for a register (``i3`` for ``I3``)."""
    is_f, idx = operand
    return f"f{idx}" if is_f else f"i{idx}"


#: Binary ops whose numpy-scalar operator computes the masked ufunc's
#: bits: int64 scalars wrap like int64 rows, float64 scalars round
#: like float64 rows (and divide by zero to inf/nan without raising).
_SCALAR_INFIX = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.MUL: "*",
    Opcode.AND: "&",
    Opcode.OR: "|",
    Opcode.XOR: "^",
    Opcode.FADD: "+",
    Opcode.FSUB: "-",
    Opcode.FMUL: "*",
    Opcode.FDIV: "/",
}

#: Comparisons; the scalar result is the int64 constant ``_ONE`` or
#: ``_ZERO`` (a numpy bool in a local would add like a logical or).
_SCALAR_CMP = {
    Opcode.ICMP_EQ: "==",
    Opcode.ICMP_NE: "!=",
    Opcode.ICMP_SLT: "<",
    Opcode.ICMP_SLE: "<=",
    Opcode.ICMP_SGT: ">",
    Opcode.ICMP_SGE: ">=",
    Opcode.FCMP_EQ: "==",
    Opcode.FCMP_NE: "!=",
    Opcode.FCMP_LT: "<",
    Opcode.FCMP_LE: "<=",
    Opcode.FCMP_GT: ">",
    Opcode.FCMP_GE: ">=",
}

#: A loaded element widened to its register's numpy scalar type: the
#: masked body's assignment into an int64/float64 row does the same.
#: ``_W8`` maps every int8 value to its int64 scalar.
_SCALAR_WIDEN = {
    MemType.I8: "_W8[{}]",
    MemType.I32: "np.int64({})",
    MemType.I64: "{}",
    MemType.F32: "np.float64({})",
    MemType.F64: "{}",
}

#: Narrowing integer stores: the stored value's range, and the cast the
#: masked body's array assignment applies (scalar ``setitem`` raises
#: ``OverflowError`` outside the range instead of wrapping).
_SCALAR_NARROW = {
    MemType.I8: (-(1 << 7), (1 << 7) - 1, "np.int8"),
    MemType.I32: (-(1 << 31), (1 << 31) - 1, "np.int32"),
}

_W8 = [np.int64(v) for v in range(128)] + [np.int64(v) for v in range(-128, 0)]


def _emit_scalar(
    li: LInstr,
    pc: int,
    out: list[str],
    consts: dict,
    proof=None,
    mode: str = "checked",
) -> None:
    """Append the one-lane body for one instruction: the same operation
    on lane ``k``'s register values, held in Python locals as numpy
    int64/float64 scalars (see :func:`_local`).

    Guards, trap texts, fault messages and ``on_mem`` lane/address sets
    are the masked body's for a one-lane mask; every expression computes
    the bits the masked body's ufunc or cast does (docs/backends.md lists
    the hazards).  Constants go to ``consts`` as ``_c{pc}`` -> numpy
    scalar; they become the function's defaults.  Ops without a scalar
    spelling spill their operands to the register rows, call the
    interpreter handler and reload their result.
    """
    op = li.op
    d = _local((li.dest_f, li.dest)) if li.dest >= 0 else None
    args = [_local(a) for a in li.args]
    if op in _SCALAR_INFIX:
        out.append(f"{d} = {args[0]} {_SCALAR_INFIX[op]} {args[1]}")
        return
    if op in _SCALAR_CMP:
        a, b = args
        out.append(f"{d} = _ONE if {a} {_SCALAR_CMP[op]} {b} else _ZERO")
        return
    if op in (Opcode.IMIN, Opcode.IMAX):
        a, b = args
        cmp = "<=" if op is Opcode.IMIN else ">="
        out.append(f"{d} = {a} if {a} {cmp} {b} else {b}")
        return
    if op in _BINARY_OPS:  # FMIN/FMAX (NaN rules), FPOW: the same ufunc
        out.append(f"{d} = {_UFUNC_NAMES[op]}({args[0]}, {args[1]})")
        return
    if op in (Opcode.FNEG, Opcode.INEG):
        out.append(f"{d} = -{args[0]}")
        return
    if op is Opcode.BNOT:
        out.append(f"{d} = ~{args[0]}")
        return
    if op in _UNARY_OPS:  # transcendentals and rounding: the same ufunc
        out.append(f"{d} = {_UFUNC_NAMES[op]}({args[0]})")
        return
    if op in (Opcode.SHL, Opcode.ASHR):
        sh = "<<" if op is Opcode.SHL else ">>"
        out.append(f"{d} = {args[0]} {sh} ({args[1]} & 63)")
        return
    if op in (Opcode.SDIV, Opcode.SREM):
        a, b = args
        if not _trap_elidable(proof, mode):
            pfx = _trap_prefix(proof, mode)
            out.append(f"if {b} == 0:")
            out.append(f'    _trap({pfx}"integer division by zero", mask)')
        # sign(a) * sign(b) * (|a| // |b|), with |MIN| wrapping to MIN
        # as np.abs does: a zero quotient is its own negation
        out.append(f"_q = abs({a}) // abs({b})")
        out.append(f"if ({a} < 0) != ({b} < 0):")
        out.append("    _q = -_q")
        out.append(f"{d} = {a} - _q * {b}" if op is Opcode.SREM else f"{d} = _q")
        return
    if op is Opcode.FPTOSI:
        a = args[0]
        if not _trap_elidable(proof, mode):
            pfx = _trap_prefix(proof, mode)
            out.append(f"if not _ISFIN({a}):")
            out.append(
                f'    _trap({pfx}"float-to-int conversion of non-finite value", mask)'
            )
        out.append("try:")
        out.append(f"    {d} = np.int64(int({a}))")
        out.append("except OverflowError:  # beyond int64: the rows' cast")
        out.append(f"    {d} = np.trunc({a}).astype(np.int64)")
        return
    if op is Opcode.SITOFP:
        out.append(f"{d} = np.float64({args[0]})")
        return
    if op in (Opcode.MOVI, Opcode.MOVF):
        consts[f"_c{pc}"] = (
            np.int64(int(li.imm)) if op is Opcode.MOVI else np.float64(li.imm)
        )
        out.append(f"{d} = _c{pc}")
        return
    if op is Opcode.MOV:
        out.append(f"{d} = {args[0]}")
        return
    if op is Opcode.SELECT:
        c, a, b = args[:3]
        out.append(f"{d} = {a} if {c} else {b}")
        return
    if op in (Opcode.LOAD, Opcode.STORE):
        addr = f"{args[0]} + {li.offset}" if li.offset else args[0]
        out.append(f"_adr = {addr}")
        _emit_scalar_memop(li, pc, out, d, args, proof, mode)
        return
    if op is Opcode.GADDR:
        out.append(f"{d} = np.int64(_resolve({li.sym!r}))")
        return
    if op is Opcode.KPARAM:
        out.append(f"{d} = _kp{pc}")
        return
    if op is Opcode.TID:
        out.append(f"{d} = _lii[k]")
        return
    if op is Opcode.NTID:
        out.append(f"{d} = _tpi")
        return
    if op is Opcode.CTAID:
        out.append(f"{d} = _team")
        return
    if op is Opcode.NCTAID:
        out.append(f"{d} = _nteams")
        return
    if op is Opcode.LANEID:
        out.append(f"{d} = _lids[k] % _ws")
        return
    if op is Opcode.INSTANCE:
        out.append(f"{d} = _gi[k]")
        return
    # SALLOC, atomics, shuffles, RPC, MEMCPY/MEMSET: the interpreter
    # handler reads and writes the rows.
    out.extend(f"{_reg(a)}[k] = {_local(a)}" for a in li.args)
    out.append(f"H[{pc}](mask)")
    if d is not None:
        out.append(f"{d} = {_reg((li.dest_f, li.dest))}[k]")


def _emit_scalar_memop(
    li: LInstr,
    pc: int,
    out: list[str],
    d: str | None,
    args: list[str],
    proof,
    mode: str,
) -> None:
    """The one-lane LOAD/STORE tail (``_adr`` already assigned): the
    guards and elisions of :func:`_emit_memop` on one address; a firing
    guard re-runs the access check on a one-element array, so the fault
    text is the masked body's."""
    mty = li.mty
    size = mty.size
    idx = f"_adr >> {size.bit_length() - 1}" if size > 1 else "_adr"
    elem = f"_mv{pc}[{idx}]"
    if li.op is Opcode.LOAD:
        access = f"{d} = {_SCALAR_WIDEN[mty].format(elem)}"
    else:
        value = args[1]
        narrow = _SCALAR_NARROW.get(mty)
        if narrow is not None:
            lo, hi, cast = narrow
            out.append(
                f"_sv = {value} if {lo} <= {value} <= {hi} "
                f"else {value}.astype({cast})"
            )
            value = "_sv"
        access = f"{elem} = {value}"
    proven = (
        proof is not None
        and proof.null is Verdict.PROVEN
        and proof.align is Verdict.PROVEN
    )
    bounds_proven = proven and proof.bounds is Verdict.PROVEN
    one = "np.array([_adr])"
    if mode == "unchecked" and proven:
        if bounds_proven:
            out.append(access)
        else:
            out.append("try:")
            out.append(f"    {access}")
            out.append("except IndexError:")
            out.append(f"    _trap(_mem._beyond_end({one}).message, mask)")
    else:
        g_pfx = _VIOLATED if mode == "assert" and proven else ""
        b_pfx = _VIOLATED if mode == "assert" and bounds_proven else ""
        align = f" or _adr & {size - 1}" if size > 1 else ""
        out.append(f"if _adr < {NULL_GUARD}{align}:")
        out.append("    try:")
        out.append(f"        _mem._indices({one}, _mty{pc})")
        out.append("    except _MF as _exc:")
        out.append(f"        _trap({g_pfx}_exc.message, mask)")
        out.append("try:")
        out.append(f"    {access}")
        out.append("except IndexError:")
        out.append(f"    _trap({b_pfx}_mem._beyond_end({one}).message, mask)")
    out.append("if _C is not None:")
    out.append(f"    _C.on_mem(_lids[k : k + 1], {one}, {size})")


def _scalar_registers(code: list[LInstr], pcs) -> tuple[list, list]:
    """Registers the instructions at ``pcs`` read before writing them,
    and those they write, each in first-use order."""
    read: dict = {}
    written: dict = {}
    for pc in pcs:
        li = code[pc]
        for a in li.args:
            if a not in written:
                read.setdefault(a, None)
        if li.dest >= 0:
            written.setdefault((li.dest_f, li.dest), None)
    return list(read), list(written)


def compile_kernel(
    kernel: LoweredKernel,
    *,
    cert=None,
    safety_mode: str,
    tracer=None,
) -> CompiledProgram:
    """Generate the block functions' source for one kernel and find its
    loop regions; :func:`block_code` and :func:`region_code` compile
    them on first use.

    The artifact is kernel-level (not executor-level): generated names
    (``I3``, ``H``, ``_mem``...) are free variables, the globals of the
    per-executor namespace a block function is made over (a full-row
    region binds them as keyword defaults when its code is ``exec``'d
    there — the classic threaded-code trick giving local-variable lookup
    speed inside each loop).

    ``cert`` (a :class:`~repro.analysis.safety.SafetyCertificate`) plus
    ``safety_mode`` (one of :data:`~repro.runtime.backend.SAFETY_MODES`,
    already validated by the launching device) select guard emission per
    site; artifacts are cached per (mode, certificate) so modes never
    share code objects.  Two threads missing the cache at once both
    generate the same source from the same inputs, so whichever artifact
    is stored last is equivalent.
    """
    if cert is None:
        safety_mode = "checked"  # nothing to consult: guards everywhere
    cache_key = (
        CACHE_KEY if safety_mode == "checked" else (CACHE_KEY, safety_mode)
    )
    cached = kernel.backend_cache.get(cache_key)
    if cached is not None:
        if safety_mode == "checked":
            return cached
        cached_cert, cached_program = cached
        if cached_cert is cert:
            return cached_program
    with _codegen_span(tracer, kernel, mode=safety_mode):
        program = _generate(kernel, cert, safety_mode)
    kernel.backend_cache[cache_key] = (
        program if safety_mode == "checked" else (cert, program)
    )
    return program


def _generate(kernel: LoweredKernel, cert, safety_mode: str) -> CompiledProgram:
    sites = cert.sites if cert is not None else {}

    from repro.gpu.timing import cpi_of

    code = kernel.code
    n = len(code)
    # "stoppers" end a straight-line run: branches plus everything the
    # interpreter's fast path treats as a control instruction.
    is_stop = [
        li.op in (Opcode.BR, Opcode.CBR) or li.op in _CONTROL_OPS
        for li in code
    ]
    # Each leader's terminator; a straight-line run falling off the end
    # (the verifier forbids it) gets no entry.
    ends: dict[int, int] = {}
    for leader in sorted(_block_leaders(kernel, is_stop)):
        end = leader
        while end < n and not is_stop[end]:
            end += 1
        if end < n:
            ends[leader] = end

    block_source: dict[int, str] = {}
    blocks: dict[int, tuple[int, int, float]] = {}
    full_src: dict[int, list[str]] = {}
    for leader, end in ends.items():
        if end == leader:
            continue  # empty body: the leader is itself a stopper
        body = code[leader:end]
        cycles = float(sum(cpi_of(li.op) for li in body))
        blocks[leader] = (end, end - leader, cycles)

        full_lines = full_src[leader] = []
        masked_lines: list[str] = []
        for off, li in enumerate(body):
            proof = sites.get(leader + off)
            _emit_full(li, leader + off, full_lines, proof, safety_mode)
            _emit_masked(li, leader + off, masked_lines, proof, safety_mode)

        block_source[leader] = "\n".join(
            [
                f"def _blk{leader}(mask, full):",
                "    if full:",
                *(f"        {ln}" for ln in full_lines),
                "    else:",
                *(f"        {ln}" for ln in masked_lines),
            ]
        ) + "\n"

    return CompiledProgram(
        block_source=block_source,
        blocks=blocks,
        regions=_loop_regions(kernel, ends),
        full_src=full_src,
        sites=sites,
        safety_mode=safety_mode,
    )


def region_code(
    program: CompiledProgram,
    kernel: LoweredKernel,
    header: int,
    *,
    scalar: bool = False,
    tracer=None,
):
    """Region ``header``'s code, generated and ``compile()``d on the
    first request and kept on ``program`` (so once per kernel, safety
    mode and certificate, like the block code).  Two threads racing here
    generate the same source, as in :func:`compile_kernel`.

    Full-row: a module code object defining ``_loop{header}``, ``exec``'d
    into each team's namespace.  With ``scalar``: ``(code, defaults)``
    for the one-lane ``_loop1_{header}``, as :func:`block_code` returns
    for a block.
    """
    codes = program.region1_code if scalar else program.region_code
    code = codes.get(header)
    if code is None:
        span = {"region": header, "scalar": True} if scalar else {"region": header}
        with _codegen_span(tracer, kernel, **span):
            lines, consts = _emit_region(header, program, kernel.code, scalar)
            source = "\n".join(lines) + "\n"
            code = compile(
                source, f"<compiled kernel {kernel.name} loop {header}>", "exec"
            )
            if scalar:
                code = (
                    _function_code(code, f"_loop1_{header}"),
                    tuple(consts.values()),
                )
        sources = program.region1_source if scalar else program.region_source
        sources[header] = source
        codes[header] = code
    return code


def block_code(
    program: CompiledProgram,
    kernel: LoweredKernel,
    leader: int,
    *,
    scalar: bool = False,
    tracer=None,
):
    """``(code, defaults)`` of block ``leader``'s function, ``compile()``d
    on the first request and kept on ``program`` like
    :func:`region_code`'s: the row function ``_blk{leader}(mask, full)``
    (its source generated with the kernel's, in ``block_source``) or,
    with ``scalar``, the one-lane ``_blk1_{leader}(mask, k)`` (source
    generated here, kept in ``scalar_source``).

    ``code`` is the function's own code object.  A team makes it a
    function with its namespace as globals (``types.FunctionType``), so
    binding one costs no ``exec``; ``defaults`` are the one-lane body's
    ``_c{pc}`` numpy constants (trailing parameters).

    The one-lane body runs on lane ``k``'s register values in Python
    locals: the registers it reads before writing are loaded on entry,
    those it writes are stored on return.  A trap leaves the rest
    unstored; the team is over then, and nothing reads its registers.
    """
    codes = program.scalar_code if scalar else program.block_code
    code = codes.get(leader)
    if code is None:
        span = {"scalar": leader} if scalar else {"block": leader}
        with _codegen_span(tracer, kernel, **span):
            consts: dict = {}
            if scalar:
                name = f"_blk1_{leader}"
                source = _scalar_block_source(program, kernel.code, leader, consts)
            else:
                name = f"_blk{leader}"
                source = program.block_source[leader]
            module = compile(
                source, f"<compiled kernel {kernel.name} block {leader}>", "exec"
            )
            code = (_function_code(module, name), tuple(consts.values()))
        if scalar:
            program.scalar_source[leader] = source
        codes[leader] = code
    return code


def _scalar_block_source(
    program: CompiledProgram, code: list[LInstr], leader: int, consts: dict
) -> str:
    end = program.blocks[leader][0]
    body: list[str] = []
    for pc in range(leader, end):
        _emit_scalar(
            code[pc], pc, body, consts, program.sites.get(pc), program.safety_mode
        )
    read, written = _scalar_registers(code, range(leader, end))
    return "\n".join(
        [
            f"def _blk1_{leader}(mask, k{''.join(f', {c}' for c in consts)}):",
            *(f"    {_local(r)} = {_reg(r)}[k]" for r in read),
            *(f"    {ln}" for ln in body),
            *(f"    {_reg(r)}[k] = {_local(r)}" for r in written),
        ]
    ) + "\n"


def _function_code(module, name: str):
    """The code object of function ``name`` defined by ``module``."""
    return next(c for c in module.co_consts if getattr(c, "co_name", None) == name)


def _loop_regions(
    kernel: LoweredKernel, ends: dict[int, int]
) -> dict[int, list[int]]:
    """The kernel's innermost natural loops that contain no control op,
    as header -> member leaders in PC order.

    Lowering lays blocks out in reverse postorder, so inside an innermost
    loop every edge but the back edges to the header runs to a higher PC:
    one pass over the members in PC order runs one iteration.
    """
    headers = {header for header, _ in kernel.loops}
    regions = {}
    for header, body in sorted(kernel.loops):
        members = sorted(body.intersection(ends))
        if headers.intersection(members) == {header} and all(
            kernel.code[ends[m]].op in (Opcode.BR, Opcode.CBR) for m in members
        ):
            regions[header] = members
    return regions


def _emit_region(
    header: int, program: CompiledProgram, code: list[LInstr], scalar: bool
) -> tuple[list[str], dict]:
    """Source lines of ``_loop{header}(mask, steps, cap)``: one region run on
    the full-row path, returning ``(pc, steps)`` for the run loop to
    resume at; with ``scalar``, of ``_loop1_{header}(mask, k, steps,
    cap)``, the same region run on lane ``k`` alone.

    One pass of the ``while`` walks the members in PC order;
    each arm runs its block's body and its terminator exactly
    as the run loop would.  The run loop gets control back at a branch
    target outside the region, at a CBR whose lanes disagree (uncounted,
    so the run loop re-issues it and writes per-lane PCs; one lane never
    disagrees with itself), or at a block
    whose body plus terminator would cross the step cap (so the run loop
    raises the livelock trap with the same step count).  The region's
    steps and issue cycles reach the collector in one
    ``note_uniform_block`` from a ``finally``, so a trapping block still
    counts whole, as it does under block dispatch.

    The one-lane region keeps every register its blocks touch in a
    Python local (:func:`_emit_scalar`), loaded on entry; the same
    ``finally`` stores the ones they write, on every exit.  Also returns
    the one-lane body's constants (``_c{pc}`` -> value).
    """
    from repro.gpu.timing import cpi_of

    members = program.regions[header]
    blocks = program.blocks
    inside = set(members)
    consts: dict = {}
    pcs: list[int] = []

    def go(target: int) -> str:
        return f"b = {target}" if target in inside else f"return {target}, steps"

    arms: list[str] = []
    for leader in members:
        end, count, cycles = blocks.get(leader, (leader, 0, 0.0))
        term = code[end]
        pcs.extend(range(leader, end + 1))
        arm = [f"if steps > cap - {count + 1}:", f"    return {leader}, steps"]
        if count:
            arm += [f"steps += {count}", f"cyc += {cycles!r}"]
            if scalar:
                for pc in range(leader, end):
                    _emit_scalar(
                        code[pc],
                        pc,
                        arm,
                        consts,
                        program.sites.get(pc),
                        program.safety_mode,
                    )
            else:
                arm += program.full_src[leader]
        issue = ["steps += 1", f"cyc += {cpi_of(term.op)!r}"]
        if term.op is Opcode.BR:
            arm += [*issue, go(term.targets[0])]
        else:
            t_then, t_else = term.targets
            if scalar:
                arm += [*issue, f"if {_local(term.args[0])}:"]
            else:
                arm += [
                    f"_n = _nz({_reg(term.args[0])})",
                    "if 0 < _n < _T:",
                    f"    return {end}, steps",
                    *issue,
                    "if _n:",
                ]
            arm += [f"    {go(t_then)}", "else:", f"    {go(t_else)}"]
        arms.append(f"if b == {leader}:")
        arms.extend(f"    {ln}" for ln in arm)

    entry: list[str] = []
    stores: list[str] = []
    if scalar:
        read, written = _scalar_registers(code, pcs)
        entry = [f"{_local(r)} = {_reg(r)}[k]" for r in dict.fromkeys(read + written)]
        stores = [f"{_reg(r)}[k] = {_local(r)}" for r in written]
    body = [
        *entry,
        f"b = {header}",
        "s0 = steps",
        "cyc = 0.0",
        "try:",
        "    while True:",
        *(f"        {ln}" for ln in arms),
        "finally:",
        *(f"    {ln}" for ln in stores),
        "    if _C is not None:",
        "        _C.note_uniform_block(cyc, steps - s0)",
    ]
    if scalar:  # free names are the team namespace's globals
        params = "".join(f", {c}" for c in consts)
        head = f"def _loop1_{header}(mask, k, steps, cap{params}):"
    else:
        names = sorted(_free_names(body))
        defaults = "".join(f", {nm}={nm}" for nm in names)
        head = f"def _loop{header}(mask, steps, cap{defaults}):"
    return [head, *(f"    {ln}" for ln in body)], consts


def _free_names(lines: list[str]) -> set[str]:
    """Names a generated body references that must be bound as defaults."""
    import re

    pattern = re.compile(
        r"\b(I\d+|F\d+|H|np|_mem|_C|_MF|_trap|_lids|_lii|_gi|_resolve"
        r"|_tpi|_team|_nteams|_ws|_nz|_T|_mty\d+|_mv\d+|_kp\d+)\b"
    )
    names: set[str] = set()
    for ln in lines:
        names.update(pattern.findall(ln))
    return names


class _LazyHandlers:
    """Handler table built on demand.

    The compiled backend reaches interpreter handlers only at control
    instructions, complex ops, and divergent stretches; building the full
    closure set per team (the interpreter's dominant setup cost) would be
    wasted work for every PC the generated bodies cover inline.
    """

    __slots__ = ("_ex", "_cache")

    def __init__(self, ex: "CompiledBlockExecutor"):
        self._ex = ex
        self._cache: list = [None] * len(ex.kernel.code)

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, pc: int):
        h = self._cache[pc]
        if h is None:
            ex = self._ex
            h = self._cache[pc] = ex._make_handler(ex.kernel.code[pc])
        return h


#: backend_cache key for the per-PC dispatch tables (shared by all teams).
_TABLES_KEY = "compiled.tables"


@dataclass(frozen=True)
class _StaticTables:
    """Everything :meth:`BlockExecutor._build_dispatch` and the generated
    code's namespace need that does not depend on executor state: the
    per-PC dispatch tables (CBR registers as (bank, index) pairs, not
    rows) and the names the generated functions close over."""

    cpi_list: list
    is_control: list
    br_target: list
    cbr_static: list  # per CBR: (pc, is float, index, then, else)
    sync_pcs: frozenset
    stay_uniform: list
    iregs: list  # "I0", "I1", ...
    fregs: list  # "F0", "F1", ...
    mtys: list  # per LOAD/STORE site: its memory type
    mty_names: list  # ... bound as "_mty{pc}"
    view_names: list  # ... and its element view as "_mv{pc}"
    kparams: list  # per KPARAM: ("_kp{pc}", its imm, is float)


def _static_tables(kernel: LoweredKernel) -> _StaticTables:
    from repro.gpu.timing import cpi_of

    code = kernel.code
    mem = [
        (pc, li.mty)
        for pc, li in enumerate(code)
        if li.op in (Opcode.LOAD, Opcode.STORE)
    ]
    return _StaticTables(
        cpi_list=[cpi_of(li.op) for li in code],
        is_control=[li.op in _CONTROL_OPS for li in code],
        br_target=[li.targets[0] if li.op is Opcode.BR else -1 for li in code],
        cbr_static=[
            (pc, li.args[0][0], li.args[0][1], li.targets[0], li.targets[1])
            for pc, li in enumerate(code)
            if li.op is Opcode.CBR
        ],
        sync_pcs=frozenset(i for i, li in enumerate(code) if li.op in _SYNC_OPS),
        # Control ops that, on a uniform runnable set, neither move
        # per-lane PCs nor change the runnable set: the convergence they
        # assert holds by construction, so the run loop may stay on the
        # uniform path instead of re-deriving the schedule.
        stay_uniform=[
            li.op
            in (Opcode.BARRIER, Opcode.RED_ADD, Opcode.RED_MAX, Opcode.RED_MIN)
            for li in code
        ],
        iregs=[f"I{i}" for i in range(kernel.num_iregs)],
        fregs=[f"F{i}" for i in range(kernel.num_fregs)],
        mtys=[mty for _, mty in mem],
        mty_names=[f"_mty{pc}" for pc, _ in mem],
        view_names=[f"_mv{pc}" for pc, _ in mem],
        kparams=[
            (f"_kp{pc}", li.imm, li.dest_f)
            for pc, li in enumerate(code)
            if li.op is Opcode.KPARAM
        ],
    )


class CompiledBlockExecutor(BlockExecutor):
    """Runs one thread block through compiled basic-block closures.

    Control instructions, synchronization, and divergent stretches that
    do not chain through whole blocks fall back to the inherited
    interpreter machinery; straight-line runs take the compiled path,
    and warp-uniform innermost loops run as one compiled region.

    After :meth:`run` returns, ``block_dispatches`` and
    ``region_entries`` count the calls of block and region functions on
    register rows, ``scalar_dispatches`` and ``scalar_region_entries``
    those of the one-lane scalar tier.
    """

    #: Run one-lane groups on the scalar tier; differential tests clear
    #: it on an instance to replay the same launch on the masked bodies.
    scalar_tier = True

    def __init__(self, kernel: LoweredKernel, ctx: BlockContext):
        self._init_state(kernel, ctx)
        tables = kernel.backend_cache.get(_TABLES_KEY)
        if tables is None:
            tables = kernel.backend_cache[_TABLES_KEY] = _static_tables(kernel)
        self._cpi_list = tables.cpi_list
        self._is_control = tables.is_control
        self._br_target = tables.br_target
        self._sync_pcs = tables.sync_pcs
        self._stay_uniform = tables.stay_uniform
        banks = (self.iregs, self.fregs)
        cbr_info = self._cbr_info = [None] * len(kernel.code)
        for pc, is_f, idx, t_then, t_else in tables.cbr_static:
            cbr_info[pc] = (banks[is_f][idx], t_then, t_else)
        self._handlers = _LazyHandlers(self)
        program = self._program = compile_kernel(
            kernel,
            cert=kernel.backend_cache.get(SAFETY_CERT_KEY),
            safety_mode=ctx.safety_mode,
            tracer=ctx.tracer,
        )
        self._ns = self._bind_namespace(tables)
        # leader -> its _blk function (_blk1_ for one lane), bound on the
        # block's first call on that path: sequential code never needs
        # the row functions, and most blocks are sequential code
        self._rows: dict = {}
        self._scalar: dict = {}
        # header -> its _loop function (_loop1_ for one lane); a stub
        # until the first entry
        self._regions = {
            h: partial(self._first_entry, h, False) for h in program.regions
        }
        self._regions1 = {
            h: partial(self._first_entry, h, True) for h in program.regions
        }
        self.block_dispatches = 0
        self.region_entries = 0
        self.scalar_dispatches = 0
        self.scalar_region_entries = 0

    def _first_entry(self, header: int, scalar: bool, *args):
        """Bind region ``header``'s function into this team's namespace
        (generating its code if no team has yet), then run it."""
        code = region_code(
            self._program,
            self.kernel,
            header,
            scalar=scalar,
            tracer=self.ctx.tracer,
        )
        if scalar:
            fn = FunctionType(code[0], self._ns, None, code[1])
            self._regions1[header] = fn
        else:
            exec(code, self._ns)
            fn = self._regions[header] = self._ns[f"_loop{header}"]
        return fn(*args)

    def _bind_block(self, leader: int, scalar: bool):
        """Block ``leader``'s function for this team: the one-lane one
        with ``scalar``, else the row one (full or masked), its code
        compiled if no team has yet."""
        code, defaults = block_code(
            self._program, self.kernel, leader, scalar=scalar, tracer=self.ctx.tracer
        )
        fn = FunctionType(code, self._ns, None, defaults)
        (self._scalar if scalar else self._rows)[leader] = fn
        return fn

    def _bind_namespace(self, tables: _StaticTables) -> dict:
        """The per-executor environment of the generated functions: the
        globals of block and scalar-tier functions, the defaults of
        full-row regions."""
        ctx = self.ctx
        ns: dict = {
            "__builtins__": builtins,
            "np": np,
            "H": self._handlers,
            "_mem": ctx.memory,
            "_C": ctx.collector,
            "_MF": MemoryFault,
            "_trap": self._trap,
            "_lids": self.lane_ids,
            "_lii": self.lane_in_instance,
            "_gi": self.global_instance,
            "_resolve": ctx.resolve,
            # int64 scalars: the scalar tier keeps them in locals
            "_tpi": np.int64(ctx.threads_per_instance),
            "_team": np.int64(ctx.team_id),
            "_nteams": np.int64(ctx.num_teams),
            "_ws": ctx.warp_size,
            "_nz": np.count_nonzero,
            "_T": self.T,
            "_ONE": np.int64(1),
            "_ZERO": np.int64(0),
            "_W8": _W8,
            "_ISFIN": math.isfinite,
        }
        ns.update(zip(tables.iregs, self.iregs))
        ns.update(zip(tables.fregs, self.fregs))
        ns.update(zip(tables.mty_names, tables.mtys))
        # element views pre-resolved per site (the underlying buffer is
        # allocated once, so views never go stale)
        views = ctx.memory._views
        ns.update(zip(tables.view_names, [views[m] for m in tables.mtys]))
        for name, imm, is_f in tables.kparams:
            # handlers are lazy here, so the interpreter's
            # construction-time parameter check runs now instead
            try:
                value = ctx.params[int(imm)]
            except IndexError:
                raise DeviceTrap(
                    f"kernel {self.kernel.name!r} reads parameter "
                    f"#{imm} but only {len(ctx.params)} were passed",
                    team=ctx.team_id,
                ) from None
            ns[name] = np.float64(value) if is_f else np.int64(int(value))
        return ns

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Interpreter-identical scheduling with a block-table fast path.

        Mirrors :meth:`BlockExecutor.run` exactly, except that when the
        uniform PC sits on a block leader, the whole straight-line body
        executes as one compiled call (its trace contribution batched via
        ``note_uniform_block``) and control resumes at the terminator.
        A divergent min-PC group on a leader chains through whole blocks
        the same way (``note_divergent_block``).  When every lane is
        runnable and the PC sits on a region header, the loop runs in
        its ``_loop`` function until it exits, diverges or nears the
        step cap, and block dispatch resumes where it stopped.  Mid-block
        entry and the remaining divergent steps use the inherited
        per-instruction machinery.
        """
        pc = self.pc
        status = self.status
        code = self.kernel.code
        handlers = self._handlers
        max_steps = self.ctx.max_steps
        collector = self.ctx.collector
        ws = self.ctx.warp_size

        cpi_list = self._cpi_list
        is_control = self._is_control
        cbr_info = self._cbr_info
        br_target = self._br_target
        stay_uniform = self._stay_uniform
        blocks_get = self._program.blocks.get
        rows_get = self._rows.get
        regions_get = self._regions.get
        regions1_get = self._regions1.get
        scalar_get = self._scalar.get
        count_nonzero = np.count_nonzero
        T = self.T

        runnable = status == RUNNABLE
        nrun = int(runnable.sum())
        divergent = True
        full = False
        one = False  # exactly one runnable lane, k: the scalar tier
        k = 0
        mask = runnable
        cur = 0
        steps = 0
        dispatches = 0
        entries = 0
        scalar_dispatches = 0
        scalar_entries = 0

        try:
            with np.errstate(all="ignore"):
                while nrun > 0:
                    if divergent:
                        sub = pc if nrun == T else pc[runnable]
                        cur = int(sub.min())
                        if int(sub.max()) == cur:
                            divergent = False
                            mask = runnable
                            full = nrun == T
                            one = nrun == 1 and not full and self.scalar_tier
                            if one:
                                k = int(runnable.argmax())
                            if collector is not None:
                                collector.begin_uniform(
                                    mask.reshape(self.num_warps, ws).any(axis=1)
                                )
                        else:
                            mask = runnable & (pc == cur)
                            # Divergent block fast path: the min-PC group sits
                            # on a leader and the whole straight-line body lies
                            # below every other runnable lane's PC, so min-PC
                            # scheduling would run it to the terminator without
                            # interleaving another group.  One masked call
                            # replaces count handler dispatches; timed runs
                            # note each block and folded branch once, with
                            # the aggregates of per-instruction on_instr.
                            if blocks_get(cur) is not None:
                                # All other runnable lanes sit at or above
                                # othermin, so min-PC scheduling keeps this
                                # group running while its PC stays below it.
                                # With othermin a scalar, block legality is an
                                # integer compare — chain through whole blocks,
                                # folded BRs, and group-uniform CBRs (loop
                                # latches) without re-deriving the schedule.
                                othermin = int(sub[sub != cur].min())
                                cur_g = cur
                                ran = False
                                if collector is not None:
                                    warp_mask = mask.reshape(
                                        self.num_warps, ws
                                    ).any(axis=1)
                                while True:
                                    blk = blocks_get(cur_g)
                                    if blk is None:
                                        break
                                    end, count, cycles = blk
                                    if end > othermin:
                                        # another group's PC falls inside (or
                                        # at the end of) the body: stop before
                                        # it and let the probe re-derive
                                        break
                                    steps += count
                                    if steps > max_steps:
                                        self.steps = steps
                                        raise DeviceTrap(
                                            f"kernel {self.kernel.name!r} "
                                            f"exceeded {max_steps} "
                                            "interpreter steps (livelock?)",
                                            team=self.ctx.team_id,
                                        )
                                    if collector is not None:
                                        collector.note_divergent_block(
                                            warp_mask, cycles, count
                                        )
                                    fn = rows_get(cur_g)
                                    if fn is None:
                                        fn = self._bind_block(cur_g, False)
                                    fn(mask, False)
                                    dispatches += 1
                                    ran = True
                                    if end == othermin:
                                        # a lane waits exactly at the
                                        # terminator and joins the group there
                                        cur_g = end
                                        break
                                    bt = br_target[end]
                                    info = cbr_info[end]
                                    if bt < 0 and info is None:
                                        cur_g = end  # control op: slow path next
                                        break
                                    steps += 1  # folded BR/CBR
                                    if collector is not None:
                                        collector.note_divergent_block(
                                            warp_mask, cpi_list[end], 1
                                        )
                                    if bt >= 0:
                                        cur_g = bt
                                        continue
                                    row, t_then, t_else = info
                                    vals = row[mask]
                                    first = vals[0]
                                    if (vals == first).all():
                                        cur_g = t_then if first else t_else
                                        continue
                                    pc[mask] = np.where(vals != 0, t_then, t_else)
                                    cur_g = -1  # pc written per-lane
                                    break
                                if ran:
                                    if cur_g >= 0:
                                        pc[mask] = cur_g
                                    continue

                    if not divergent:
                        # ---- compiled fast path ------------------------------
                        if full:
                            region = regions_get(cur)
                            if region is not None:
                                entries += 1
                                cur, steps = region(mask, steps, max_steps)
                        elif one:
                            region = regions1_get(cur)
                            if region is not None:
                                scalar_entries += 1
                                cur, steps = region(mask, k, steps, max_steps)
                        blk = blocks_get(cur)
                        if blk is not None:
                            end, count, cycles = blk
                            steps += count
                            if steps > max_steps:
                                self.steps = steps
                                raise DeviceTrap(
                                    f"kernel {self.kernel.name!r} exceeded "
                                    f"{max_steps} interpreter steps (livelock?)",
                                    team=self.ctx.team_id,
                                )
                            if collector is not None:
                                collector.note_uniform_block(cycles, count)
                            if one:
                                sfn = scalar_get(cur)
                                if sfn is None:
                                    sfn = self._bind_block(cur, True)
                                sfn(mask, k)
                                scalar_dispatches += 1
                            else:
                                fn = rows_get(cur)
                                if fn is None:
                                    fn = self._bind_block(cur, False)
                                fn(mask, full)
                                dispatches += 1
                            cur = end
                        # ---- terminator / single instruction -----------------
                        steps += 1
                        if steps > max_steps:
                            self.steps = steps
                            raise DeviceTrap(
                                f"kernel {self.kernel.name!r} exceeded "
                                f"{max_steps} interpreter steps (livelock?)",
                                team=self.ctx.team_id,
                            )
                        if collector is not None:
                            collector.note_uniform(cpi_list[cur])
                        bt = br_target[cur]
                        if bt >= 0:  # unconditional branch
                            cur = bt
                            continue
                        info = cbr_info[cur]
                        if info is not None:  # conditional branch
                            row, t_then, t_else = info
                            if one:
                                cur = t_then if row[k] else t_else
                                continue
                            vals = row if full else row[mask]
                            nz = count_nonzero(vals)
                            if nz == 0 or nz == vals.size:
                                cur = t_then if nz else t_else
                                continue
                            pc[mask] = np.where(vals != 0, t_then, t_else)
                            divergent = True
                            if collector is not None:
                                collector.end_uniform()
                            continue
                        if is_control[cur]:
                            if stay_uniform[cur]:
                                # barrier/reduction on a uniform runnable set:
                                # converged by construction, runnable set and
                                # PCs unchanged — no need to re-derive the
                                # schedule (the handler reads neither)
                                handlers[cur](mask)
                                cur += 1
                                continue
                            pc[mask] = cur  # flush logical PCs
                            if collector is not None:
                                collector.end_uniform()
                            advanced = handlers[cur](mask)
                            if not advanced:
                                pc[mask] = cur + 1
                            runnable = status == RUNNABLE
                            nrun = int(runnable.sum())
                            divergent = True
                            continue
                        handlers[cur](mask)  # mid-block entry: plain vector op
                        cur += 1
                        continue

                    # ---- divergent slow path (inherited semantics) -----------
                    steps += 1
                    if steps > max_steps:
                        self.steps = steps
                        raise DeviceTrap(
                            f"kernel {self.kernel.name!r} exceeded "
                            f"{max_steps} interpreter steps (livelock?)",
                            team=self.ctx.team_id,
                        )
                    if collector is not None:
                        warp_mask = mask.reshape(self.num_warps, ws).any(axis=1)
                        collector.on_instr(code[cur].op, warp_mask)
                    advanced = handlers[cur](mask)
                    if not advanced:
                        pc[mask] = cur + 1
                    if is_control[cur]:
                        runnable = status == RUNNABLE
                        nrun = int(runnable.sum())
            self.steps = steps
        finally:
            self.block_dispatches = dispatches
            self.region_entries = entries
            self.scalar_dispatches = scalar_dispatches
            self.scalar_region_entries = scalar_entries


__all__ = [
    "CompiledBlockExecutor",
    "CompiledProgram",
    "SAFETY_CERT_KEY",
    "compile_kernel",
    "block_code",
    "region_code",
]
