"""Compiled execution backend: basic blocks and loops as ``compile()``d
functions.

The interpreter's uniform fast path still pays, per instruction, one
handler call, one CPI lookup, one branch-table probe, and a boolean-mask
fancy-index per operand.  This backend removes that per-instruction
overhead for straight-line code:

* **Block table** — leaders are instruction 0, every branch target, and
  the successor of every control instruction.  Each leader's maximal
  straight-line run (up to the next branch/control instruction) is one
  block; the run loop jumps block to block through dicts keyed by PC
  (threaded code) and handles each terminator with the interpreter's
  own uniform logic.
* **One emitter, three lane selections** — :func:`_emit` writes one
  instruction's body for a lane selection (:class:`_Lanes`).  ``FULL``
  (every lane of the padded block runnable, the steady state inside
  parallel regions) runs over whole register rows with ``out=`` ufuncs
  and ``[:]`` stores, no mask materialized.  ``MASKED`` (a partial lane
  set) evaluates the interpreter's pre-specialized handlers' numpy
  expressions on ``I3[mask]``.  ``ONE`` (one runnable lane ``k``: each
  instance's sequential phase) keeps lane ``k``'s registers in Python
  locals as numpy ``int64``/``float64`` scalars and reads or writes one
  element per memory op; :func:`_emit_scalar` holds only the spellings
  where numpy-scalar semantics differ from the rows' (docs/backends.md
  lists them).  Ops with lane-serial or stateful semantics call the
  interpreter handler on every selection, so those behave identically
  by construction.  :func:`_emit_memop` is every selection's LOAD/STORE
  tail, with one guard policy for the certificate and safety mode.
* **Four function kinds** — a block's row function
  ``_blk{leader}(mask, full)`` carries its ``FULL`` and ``MASKED``
  bodies, and ``_blk1_{leader}(mask, k)`` its ``ONE`` body.  Each
  innermost natural loop with no control op in it also becomes
  ``_loop{header}`` (``FULL``) and ``_loop1_{header}`` (``ONE``): a
  native ``while`` over ``if b == <leader>`` arms re-emitting the
  member blocks' bodies.  The run loop enters a region when the PC sits
  on its header and every lane (or exactly one) is runnable, and takes
  over again when the loop exits, a CBR's lanes disagree (one
  ``count_nonzero`` of the condition row tells) or the step cap is near.
  Steps, livelock checks and issue cycles are those of block dispatch,
  summed in locals and noted once per region.
* **One artifact table** — :func:`function_code` generates and
  ``compile()``s function ``(kind, pc)`` on its first request by any
  team (most blocks run on one path only, and many loops, such as
  argument parsing, never run with every lane runnable) and keeps its
  source and code on the kernel's :class:`CompiledProgram`.
* **One binder** — a team makes each function on its own first call
  with ``types.FunctionType`` over its namespace, whose globals are its
  register rows, memory views and run-time helpers
  (:meth:`CompiledBlockExecutor._bind`).  Trailing parameters with
  defaults carry a one-lane body's numpy constants and a row region's
  free names.  Binding those names as keyword defaults (local-variable
  lookups in the hot loop) rather than leaving them namespace globals
  is measured: globals made the ``figure6`` benchmark's timed launches
  about 3% slower, while for one-lane regions it made no difference, so
  those read globals.
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
row block's its leader as ``block``, a one-lane block's as ``scalar``).
"""

from __future__ import annotations

import builtins
import math
import symtable
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from types import CodeType, FunctionType

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

#: Key under which the compiled program is cached on the kernel, with
#: the safety mode: ``backend_cache[(CACHE_KEY, mode)]`` is
#: ``(certificate, program)``.
CACHE_KEY = "compiled"

#: backend_cache key the device uses to attach the kernel's
#: :class:`~repro.analysis.safety.SafetyCertificate` (stamped into module
#: metadata at build time) for safety-mode-aware codegen.
SAFETY_CERT_KEY = "safety.cert"

#: numpy ufunc spellings for the binary and unary ops bodies inline.
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

#: Team-wide values: the same scalar on every lane.
_TEAM_VALUES = {Opcode.NTID: "_tpi", Opcode.CTAID: "_team", Opcode.NCTAID: "_nteams"}

#: Lane identities: a per-lane vector of the team namespace read on the
#: selection's lanes, and what follows it.
_LANE_VALUES = {
    Opcode.TID: ("_lii", ""),
    Opcode.LANEID: ("_lids", " % _ws"),
    Opcode.INSTANCE: ("_gi", ""),
}


@dataclass
class CompiledProgram:
    """The per-kernel artifact: the block and region tables, the guard
    inputs, and each generated function's source and code.

    ``blocks`` maps each leader PC to ``(end_pc, n_instrs, issue_cycles)``
    — the straight-line body ``[leader, end_pc)`` plus its precomputed
    trace contribution.  ``end_pc`` always lands on a branch/control
    instruction, which the run loop handles with the interpreter's own
    uniform logic.  ``regions`` maps the header of each loop that runs as
    one function to its member leaders (see :func:`_emit_region`).
    ``guards`` is ``(sites, safety_mode)``: the certificate's per-PC
    proofs and the mode guards are emitted for.

    ``source`` and ``code`` are keyed by ``(kind, pc)``, ``kind`` one of
    ``"blk"`` (``_blk{pc}``, the row bodies), ``"blk1"`` (``_blk1_{pc}``,
    one lane), ``"loop"`` (``_loop{pc}``, the full-row region) and
    ``"loop1"`` (``_loop1_{pc}``, the one-lane region); :func:`function_code`
    fills both on a function's first request.
    """

    blocks: dict[int, tuple[int, int, float]]
    regions: dict[int, list[int]]
    guards: tuple[dict, str]
    source: dict[tuple[str, int], str] = field(default_factory=dict)
    code: dict[tuple[str, int], tuple] = field(default_factory=dict)


@dataclass(frozen=True)
class _Lanes:
    """A lane selection :func:`_emit` writes a body for: how a register
    is read (``get``) and written (``put``), how a per-lane vector of the
    namespace such as ``_lii`` is read (``lane``), and the lane ids
    ``on_mem`` gets (``lids``).  ``one``: registers are lane ``k``'s
    Python locals (``i3`` for ``I3``)."""

    get: str
    put: str
    lane: str
    lids: str
    one: bool = False

    def reg(self, operand: tuple[bool, int]) -> str:
        return _local(operand) if self.one else _reg(operand)


FULL = _Lanes("{}", "{}[:]", "{}", "_lids")
MASKED = _Lanes("{}[mask]", "{}[mask]", "{}[mask]", "_lids[mask]")
ONE = _Lanes("{}", "{}", "{}[k]", "_lids[k : k + 1]", one=True)


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


def _local(operand: tuple[bool, int]) -> str:
    """The one-lane body's Python local for a register (``i3`` for ``I3``)."""
    is_f, idx = operand
    return f"f{idx}" if is_f else f"i{idx}"


def _block_leaders(kernel: LoweredKernel, is_stop: list[bool]) -> set[int]:
    leaders = {0}
    for pc, li in enumerate(kernel.code):
        if li.op in (Opcode.BR, Opcode.CBR):
            leaders.update(li.targets)
        if is_stop[pc] and pc + 1 < len(kernel.code):
            leaders.add(pc + 1)
    return leaders


#: Trap-message prefix (as emitted source) for a guard that fired at a
#: site its certificate PROVEs safe (assert mode).
_VIOLATED = "'safety certificate violated: ' + "


def _emit_trap_check(
    out: list[str], cond: str, text: str, proof, mode: str
) -> None:
    """``if cond: _trap(text)``: dropped where the certificate PROVEs the
    trap cannot fire and ``mode="unchecked"``; in assert mode a firing
    there reports a certificate violation."""
    proven = proof is not None and proof.trap is Verdict.PROVEN
    if mode == "unchecked" and proven:
        return
    pfx = _VIOLATED if mode == "assert" and proven else ""
    out.append(f"if {cond}:")
    out.append(f'    _trap({pfx}"{text}", mask)')


def _emit(
    li: LInstr,
    pc: int,
    out: list[str],
    lanes: _Lanes,
    consts: dict,
    proof,
    mode: str,
) -> None:
    """Append one instruction's body on ``lanes``.

    Ops with lane-serial or stateful semantics (RPC, atomics, stack
    allocation, shuffles, ``memcpy``/``memset``) call the interpreter
    handler with the selection's mask (``H[pc](mask)``), so they behave
    exactly as the interpreter's; one lane spills its operands to the
    rows first and reloads the result.  One-lane spellings that differ
    from the rows' come from :func:`_emit_scalar`, and its constants go
    to ``consts`` (``_c{pc}`` -> numpy scalar, the function's defaults).
    ``proof`` (the site's :class:`~repro.analysis.safety.SiteProof`) and
    ``mode`` select guard emission.
    """
    op = li.op
    if lanes.one and _emit_scalar(li, pc, out, consts, proof, mode):
        return
    args = [lanes.get.format(lanes.reg(a)) for a in li.args]
    dest = (li.dest_f, li.dest)
    d = lanes.put.format(lanes.reg(dest)) if li.dest >= 0 else None
    if op in _BINARY_OPS or op in _UNARY_OPS:
        operands = ", ".join(args[: 2 if op in _BINARY_OPS else 1])
        call = f"{_UFUNC_NAMES[op]}({operands}"
        out.append(f"{call}, out={_reg(dest)})" if lanes is FULL else f"{d} = {call})")
        return
    if op in (Opcode.SHL, Opcode.ASHR):
        sh = "<<" if op is Opcode.SHL else ">>"
        out.append(f"{d} = {args[0]} {sh} ({args[1]} & 63)")
        return
    if op in (Opcode.SDIV, Opcode.SREM):
        a, b = args[:2]
        if lanes is MASKED:  # one fancy-index per operand
            out += [f"_av = {a}", f"_bv = {b}"]
            a, b = "_av", "_bv"
        zero = f"({b} == 0).any()"
        _emit_trap_check(out, zero, "integer division by zero", proof, mode)
        out.append(f"_q = np.sign({a}) * np.sign({b}) * (np.abs({a}) // np.abs({b}))")
        out.append(f"{d} = {a} - _q * {b}" if op is Opcode.SREM else f"{d} = _q")
        return
    if op is Opcode.FPTOSI:
        a = args[0]
        if lanes is MASKED:
            out.append(f"_av = {a}")
            a = "_av"
        _emit_trap_check(
            out,
            f"not np.isfinite({a}).all()",
            "float-to-int conversion of non-finite value",
            proof,
            mode,
        )
        out.append(f"{d} = np.trunc({a})")
        return
    if op in (Opcode.SITOFP, Opcode.MOV):
        out.append(f"{d} = {args[0]}")
        return
    if op is Opcode.MOVI:
        out.append(f"{d} = {int(li.imm)}")
        return
    if op is Opcode.MOVF and math.isfinite(float(li.imm)):
        # inf/nan have no source-literal spelling: they take the handler
        out.append(f"{d} = {float(li.imm)!r}")
        return
    if op is Opcode.SELECT:
        c, a, b = args[:3]
        if lanes.one:
            out.append(f"{d} = {a} if {c} else {b}")
        else:
            out.append(f"{d} = np.where({c} != 0, {a}, {b})")
        return
    if op in (Opcode.LOAD, Opcode.STORE):
        offset = f" + {li.offset}" if li.offset else ""
        out.append(f"_adr = {args[0]}{offset}")
        _emit_memop(li, pc, out, lanes, d, args, proof, mode)
        return
    if op is Opcode.GADDR:
        out.append(f"{d} = _resolve({li.sym!r})")
        return
    if op is Opcode.KPARAM:
        out.append(f"{d} = _kp{pc}")
        return
    if op in _TEAM_VALUES:
        out.append(f"{d} = {_TEAM_VALUES[op]}")
        return
    if op in _LANE_VALUES:
        vector, tail = _LANE_VALUES[op]
        out.append(f"{d} = {lanes.lane.format(vector)}{tail}")
        return
    if lanes.one:
        out.extend(f"{_reg(a)}[k] = {_local(a)}" for a in li.args)
    out.append(f"H[{pc}](mask)")
    if lanes.one and d is not None:
        out.append(f"{d} = {_reg(dest)}[k]")


def _emit_memop(
    li: LInstr,
    pc: int,
    out: list[str],
    lanes: _Lanes,
    d: str | None,
    args: list[str],
    proof,
    mode: str,
) -> None:
    """Append the LOAD/STORE tail (``_adr`` already assigned) on
    ``lanes``.

    Every site takes an inline gather/scatter: the null-guard and
    alignment checks are two compares against literal constants
    (reductions over the rows), the element view is pre-bound per site
    (``_mv{pc}``), and numpy's cast-on-assignment replaces the explicit
    ``astype`` (one lane widens a loaded element and narrows a stored
    value itself).  A firing check re-runs the access through
    :meth:`GlobalMemory._indices` so fault messages are byte-identical to
    the interpreter's.  Timed runs then hand the lanes and addresses to
    ``on_mem``, exactly as the interpreter's handlers do.  One lane does
    both on the team's one-element address buffer ``_adr1`` (``on_mem``
    copies its argument).

    With a :class:`~repro.analysis.safety.SiteProof` and
    ``mode="unchecked"``, PROVEN null+alignment drops the guard entirely,
    and PROVEN bounds additionally drops the end-of-heap backstop.
    ``mode="assert"`` keeps every guard but reports a firing at a PROVEN
    site as a certificate violation.
    """
    mty = li.mty
    size = mty.size
    idx = f"_adr >> {size.bit_length() - 1}" if size > 1 else "_adr"
    elem = f"_mv{pc}[{idx}]"
    if li.op is Opcode.LOAD:
        access = f"{d} = {_SCALAR_WIDEN[mty].format(elem) if lanes.one else elem}"
    else:
        value = args[1]
        narrow = _SCALAR_NARROW.get(mty) if lanes.one else None
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
    adrs, fill = ("_adr1", ["    _adr1[0] = _adr"]) if lanes.one else ("_adr", [])
    if mode == "unchecked" and proven:
        if bounds_proven:
            out.append(access)
        else:
            out += ["try:", f"    {access}", "except IndexError:", *fill]
            out.append(f"    _trap(_mem._beyond_end({adrs}).message, mask)")
    else:
        # checked / assert: the guarded emission.  In assert mode a guard
        # firing where the certificate says it cannot is an analyzer bug;
        # surface it as such instead of an ordinary memory fault.
        g_pfx = _VIOLATED if mode == "assert" and proven else ""
        b_pfx = _VIOLATED if mode == "assert" and bounds_proven else ""
        if lanes.one:
            low, align = "_adr", f" or _adr & {size - 1}"
        else:
            low = "int(_adr.min())"
            align = f" or (int(np.bitwise_or.reduce(_adr)) & {size - 1})"
        out.append(f"if {low} < {NULL_GUARD}{align if size > 1 else ''}:")
        out += fill
        out.append("    try:")
        out.append(f"        _mem._indices({adrs}, _mty{pc})")
        out.append("    except _MF as _exc:")
        out.append(f"        _trap({g_pfx}_exc.message, mask)")
        out += ["try:", f"    {access}", "except IndexError:", *fill]
        out.append(f"    _trap({b_pfx}_mem._beyond_end({adrs}).message, mask)")
    out += ["if _C is not None:", *fill]
    out.append(f"    _C.on_mem({lanes.lids}, {adrs}, {size})")


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
    li: LInstr, pc: int, out: list[str], consts: dict, proof, mode: str
) -> bool:
    """Append lane ``k``'s body for one instruction where its spelling
    on numpy scalars must differ from the rows' to compute the masked
    body's bits (docs/backends.md lists the hazards); False leaves the
    instruction to :func:`_emit`.  Constants go to ``consts``."""
    op = li.op
    d = _local((li.dest_f, li.dest)) if li.dest >= 0 else None
    args = [_local(a) for a in li.args]
    if op in _SCALAR_INFIX:
        out.append(f"{d} = {args[0]} {_SCALAR_INFIX[op]} {args[1]}")
    elif op in _SCALAR_CMP:
        out.append(f"{d} = _ONE if {args[0]} {_SCALAR_CMP[op]} {args[1]} else _ZERO")
    elif op in (Opcode.IMIN, Opcode.IMAX):
        a, b = args[:2]
        cmp = "<=" if op is Opcode.IMIN else ">="
        out.append(f"{d} = {a} if {a} {cmp} {b} else {b}")
    elif op in (Opcode.FNEG, Opcode.INEG):
        out.append(f"{d} = -{args[0]}")
    elif op is Opcode.BNOT:
        out.append(f"{d} = ~{args[0]}")
    elif op in (Opcode.SDIV, Opcode.SREM):
        a, b = args[:2]
        _emit_trap_check(out, f"{b} == 0", "integer division by zero", proof, mode)
        # sign(a) * sign(b) * (|a| // |b|), with |MIN| wrapping to MIN
        # as np.abs does: a zero quotient is its own negation
        out.append(f"_q = abs({a}) // abs({b})")
        out.append(f"if ({a} < 0) != ({b} < 0):")
        out.append("    _q = -_q")
        out.append(f"{d} = {a} - _q * {b}" if op is Opcode.SREM else f"{d} = _q")
    elif op is Opcode.FPTOSI:
        a = args[0]
        _emit_trap_check(
            out,
            f"not _ISFIN({a})",
            "float-to-int conversion of non-finite value",
            proof,
            mode,
        )
        out.append("try:")
        out.append(f"    {d} = np.int64(int({a}))")
        out.append("except OverflowError:  # beyond int64: the rows' cast")
        out.append(f"    {d} = np.trunc({a}).astype(np.int64)")
    elif op is Opcode.SITOFP:
        out.append(f"{d} = np.float64({args[0]})")
    elif op in (Opcode.MOVI, Opcode.MOVF):
        consts[f"_c{pc}"] = (
            np.int64(int(li.imm)) if op is Opcode.MOVI else np.float64(li.imm)
        )
        out.append(f"{d} = _c{pc}")
    elif op is Opcode.GADDR:
        out.append(f"{d} = np.int64(_resolve({li.sym!r}))")
    else:
        return False
    return True


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
    """Find one kernel's blocks and loop regions; :func:`function_code`
    generates and compiles their functions on first use.

    The artifact is kernel-level (not executor-level): generated names
    (``I3``, ``H``, ``_mem``...) are free variables, the globals of the
    per-executor namespace a team makes each function over.

    ``cert`` (a :class:`~repro.analysis.safety.SafetyCertificate`) plus
    ``safety_mode`` (one of :data:`~repro.runtime.backend.SAFETY_MODES`,
    already validated by the launching device) select guard emission per
    site; artifacts are cached per mode as ``(certificate, program)`` and
    reused for the same certificate only, so modes never share code
    objects.  Checked mode consults no certificate.  Two threads missing
    the cache at once both generate the same source from the same inputs,
    so whichever artifact is stored last is equivalent.
    """
    if cert is None or safety_mode == "checked":
        cert, safety_mode = None, "checked"  # guards everywhere
    cached = kernel.backend_cache.get((CACHE_KEY, safety_mode))
    if cached is not None and cached[0] is cert:
        return cached[1]
    with _codegen_span(tracer, kernel, mode=safety_mode):
        program = _generate(kernel, cert, safety_mode)
    kernel.backend_cache[(CACHE_KEY, safety_mode)] = (cert, program)
    return program


def _generate(kernel: LoweredKernel, cert, safety_mode: str) -> CompiledProgram:
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

    blocks: dict[int, tuple[int, int, float]] = {}
    for leader, end in ends.items():
        if end > leader:  # else the leader is itself a stopper
            cycles = float(sum(cpi_of(li.op) for li in code[leader:end]))
            blocks[leader] = (end, end - leader, cycles)

    return CompiledProgram(
        blocks=blocks,
        regions=_loop_regions(kernel, ends),
        guards=(cert.sites if cert is not None else {}, safety_mode),
    )


#: ``codegen`` span arguments of each function kind.
_SPAN_ARGS = {
    "blk": lambda pc: {"block": pc},
    "blk1": lambda pc: {"scalar": pc},
    "loop": lambda pc: {"region": pc},
    "loop1": lambda pc: {"region": pc, "scalar": True},
}


def function_code(
    program: CompiledProgram,
    kernel: LoweredKernel,
    kind: str,
    pc: int,
    *,
    tracer=None,
) -> tuple:
    """``(code, consts, names)`` of function ``(kind, pc)`` (see
    :class:`CompiledProgram`), its source generated and ``compile()``d on
    the first request and kept on ``program`` (so once per kernel, safety
    mode and certificate).  Two threads racing here generate the same
    source, as in :func:`compile_kernel`.

    ``code`` is the function's own code object.  Its trailing parameters
    have defaults: ``consts`` are a one-lane body's ``_c{pc}`` numpy
    constants, ``names`` a row region's free names, which a team looks
    up in its namespace (:meth:`CompiledBlockExecutor._bind`).
    """
    entry = program.code.get((kind, pc))
    if entry is None:
        with _codegen_span(tracer, kernel, **_SPAN_ARGS[kind](pc)):
            lanes = ONE if kind.endswith("1") else FULL
            if kind.startswith("blk"):
                lines, consts, names = _emit_block(pc, program, kernel.code, lanes)
            else:
                lines, consts, names = _emit_region(pc, program, kernel.code, lanes)
            source = "\n".join(lines) + "\n"
            module = compile(
                source, f"<compiled kernel {kernel.name} {kind} {pc}>", "exec"
            )
            code = next(c for c in module.co_consts if isinstance(c, CodeType))
            entry = (code, tuple(consts.values()), names)
        program.source[(kind, pc)] = source
        program.code[(kind, pc)] = entry
    return entry


def _emit_block(
    leader: int, program: CompiledProgram, code: list[LInstr], lanes: _Lanes
) -> tuple[list[str], dict, tuple]:
    """Source lines of block ``leader``'s function: ``_blk{leader}(mask,
    full)`` with its ``FULL`` and ``MASKED`` bodies or, for ``ONE``,
    ``_blk1_{leader}(mask, k, <constants>)``.

    The one-lane body runs on lane ``k``'s register values in Python
    locals: the registers it reads before writing are loaded on entry,
    those it writes are stored on return.  A trap leaves the rest
    unstored; the team is over then, and nothing reads its registers.
    """
    sites, mode = program.guards
    pcs = range(leader, program.blocks[leader][0])
    consts: dict = {}

    def body(sel: _Lanes) -> list[str]:
        out: list[str] = []
        for pc in pcs:
            _emit(code[pc], pc, out, sel, consts, sites.get(pc), mode)
        return out

    if lanes.one:
        lines = body(lanes)
        read, written = _scalar_registers(code, pcs)
        return [
            f"def _blk1_{leader}(mask, k{''.join(f', {c}' for c in consts)}):",
            *(f"    {_local(r)} = {_reg(r)}[k]" for r in read),
            *(f"    {ln}" for ln in lines),
            *(f"    {_reg(r)}[k] = {_local(r)}" for r in written),
        ], consts, ()
    return [
        f"def _blk{leader}(mask, full):",
        "    if full:",
        *(f"        {ln}" for ln in body(FULL)),
        "    else:",
        *(f"        {ln}" for ln in body(MASKED)),
    ], consts, ()


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
    header: int, program: CompiledProgram, code: list[LInstr], lanes: _Lanes
) -> tuple[list[str], dict, tuple]:
    """Source lines of ``_loop{header}(mask, steps, cap)``: one region
    run on the full-row path, returning ``(pc, steps)`` for the run loop
    to resume at; for ``ONE``, of ``_loop1_{header}(mask, k, steps,
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
    Python local, loaded on entry; the same ``finally`` stores the ones
    they write, on every exit.  Also returns the one-lane body's
    constants (``_c{pc}`` -> value) and the full-row region's free names
    (:func:`_free_names`), which its header binds as keyword defaults.
    """
    from repro.gpu.timing import cpi_of

    sites, mode = program.guards
    members = program.regions[header]
    inside = set(members)
    consts: dict = {}
    pcs: list[int] = []

    def go(target: int) -> str:
        return f"b = {target}" if target in inside else f"return {target}, steps"

    arms: list[str] = []
    for leader in members:
        end, count, cycles = program.blocks.get(leader, (leader, 0, 0.0))
        term = code[end]
        pcs.extend(range(leader, end + 1))
        arm = [f"if steps > cap - {count + 1}:", f"    return {leader}, steps"]
        if count:
            arm += [f"steps += {count}", f"cyc += {cycles!r}"]
            for pc in range(leader, end):
                _emit(code[pc], pc, arm, lanes, consts, sites.get(pc), mode)
        issue = ["steps += 1", f"cyc += {cpi_of(term.op)!r}"]
        if term.op is Opcode.BR:
            arm += [*issue, go(term.targets[0])]
        else:
            t_then, t_else = term.targets
            if lanes.one:
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
    if lanes.one:
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
    body = [f"    {ln}" for ln in body]
    if lanes.one:  # free names are the team namespace's globals
        params = "".join(f", {c}" for c in consts)
        return [f"def _loop1_{header}(mask, k, steps, cap{params}):", *body], consts, ()
    head = f"def _loop{header}(mask, steps, cap"
    names = _free_names([f"{head}):", *body])
    defaults = "".join(f", {nm}={nm}" for nm in names)
    return [f"{head}{defaults}):", *body], consts, names


def _free_names(lines: list[str]) -> tuple[str, ...]:
    """The names the function in ``lines`` reads as globals that builtins
    do not provide, sorted: Python's own scope analysis of the source.
    They are exactly the team-namespace names it needs, so a team binds
    each from its namespace."""
    (fn,) = symtable.symtable("\n".join(lines), "<region>", "exec").get_children()
    return tuple(sorted(n for n in fn.get_globals() if n not in _BUILTINS))


_BUILTINS = frozenset(vars(builtins))


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


def _enter(bind, kind: str, pc: int, *args):
    """A region's first entry on a team: bind its function, then run it."""
    return bind(kind, pc)(*args)


#: The executor attribute keeping each kind's functions for the run loop.
_BOUND = {"blk": "_rows", "blk1": "_scalar", "loop": "_regions", "loop1": "_regions1"}


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
        # pc -> this team's function of each kind (see _BOUND), bound on
        # its first call: a block's on the first lookup that misses (one
        # lane never needs the row functions, and most blocks are
        # sequential code), a region's on its first entry (_enter)
        self._rows: dict = {}
        self._scalar: dict = {}
        bind = self._bind
        self._regions = {h: partial(_enter, bind, "loop", h) for h in program.regions}
        self._regions1 = {
            h: partial(_enter, bind, "loop1", h) for h in program.regions
        }
        self.block_dispatches = 0
        self.region_entries = 0
        self.scalar_dispatches = 0
        self.scalar_region_entries = 0

    def _bind(self, kind: str, pc: int):
        """Function ``(kind, pc)`` for this team, kept in its kind's table:
        its code (compiled if no team has yet) made a function over the
        team's namespace, with its constants and free names as defaults."""
        code, defaults, names = function_code(
            self._program, self.kernel, kind, pc, tracer=self.ctx.tracer
        )
        ns = self._ns
        if names:
            defaults += tuple(map(ns.__getitem__, names))
        fn = FunctionType(code, ns, None, defaults)
        getattr(self, _BOUND[kind])[pc] = fn
        return fn

    def _bind_namespace(self, tables: _StaticTables) -> dict:
        """The per-executor environment of the generated functions: their
        globals, and the defaults of full-row regions' free names."""
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
            "_adr1": np.zeros(1, np.int64),  # one lane's address for _mem, on_mem
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
                                        raise self._livelock(steps)
                                    if collector is not None:
                                        collector.note_divergent_block(
                                            warp_mask, cycles, count
                                        )
                                    fn = rows_get(cur_g)
                                    if fn is None:
                                        fn = self._bind("blk", cur_g)
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
                                raise self._livelock(steps)
                            if collector is not None:
                                collector.note_uniform_block(cycles, count)
                            if one:
                                sfn = scalar_get(cur)
                                if sfn is None:
                                    sfn = self._bind("blk1", cur)
                                sfn(mask, k)
                                scalar_dispatches += 1
                            else:
                                fn = rows_get(cur)
                                if fn is None:
                                    fn = self._bind("blk", cur)
                                fn(mask, full)
                                dispatches += 1
                            cur = end
                        # ---- terminator / single instruction -----------------
                        steps += 1
                        if steps > max_steps:
                            raise self._livelock(steps)
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
                        raise self._livelock(steps)
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
    "function_code",
]
