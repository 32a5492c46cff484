"""Compiled execution backend: basic blocks as ``compile()``d closures.

The interpreter's uniform fast path still pays, per instruction, one
handler call, one CPI lookup, one branch-table probe, and a boolean-mask
fancy-index per operand.  This backend removes that per-instruction
overhead for straight-line code:

* **Block table** — leaders are instruction 0, every branch target, and
  the successor of every control instruction.  Each leader's maximal
  straight-line run (up to the next branch/control instruction) becomes
  one generated Python function, compiled once per kernel with
  ``compile()`` and bound per executor with ``exec`` (threaded code:
  the run loop jumps block to block through a dict keyed by PC).
* **Warp-level vectorization** — each block function carries two bodies.
  When every lane of the padded block is runnable (``full``, the steady
  state inside parallel regions), operations run over whole register
  rows with ``out=`` ufuncs — no mask materialization at all.  Otherwise
  the body replays the interpreter's own pre-specialized handlers, so
  masked semantics are identical by construction.
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
codegen + ``compile()`` cost is paid once per kernel, not per team.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.safety import Verdict
from repro.errors import DeviceTrap, MemoryFault
from repro.gpu.memory import NULL_GUARD
from repro.ir.instructions import Opcode
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
    """The per-kernel artifact: generated source + its code object.

    ``blocks`` maps each leader PC to ``(end_pc, n_instrs, issue_cycles)``
    — the straight-line body ``[leader, end_pc)`` plus its precomputed
    trace contribution.  ``end_pc`` always lands on a branch/control
    instruction, which the run loop handles with the interpreter's own
    uniform logic.
    """

    source: str
    code: object
    blocks: dict[int, tuple[int, int, float]]


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


def compile_kernel(
    kernel: LoweredKernel,
    *,
    cert=None,
    safety_mode: str,
) -> CompiledProgram:
    """Generate + ``compile()`` the block functions for one kernel.

    The artifact is kernel-level (not executor-level): generated names
    (``I3``, ``H``, ``_mem``...) are free variables bound as keyword
    defaults when the code object is ``exec``'d into a per-executor
    namespace — the classic threaded-code trick giving local-variable
    lookup speed inside each block.

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
    leaders = _block_leaders(kernel, is_stop)

    lines: list[str] = ["import numpy as np  # bound via defaults; see exec"]
    blocks: dict[int, tuple[int, int, float]] = {}
    for leader in sorted(leaders):
        end = leader
        while end < n and not is_stop[end]:
            end += 1
        if end == leader or end >= n:
            # Empty body (leader is itself a stopper) or a straight-line
            # run falling off the end (the verifier forbids it; be safe).
            continue
        body = code[leader:end]
        cycles = float(sum(cpi_of(li.op) for li in body))
        blocks[leader] = (end, end - leader, cycles)

        full_lines: list[str] = []
        masked_lines: list[str] = []
        for off, li in enumerate(body):
            proof = sites.get(leader + off)
            _emit_full(li, leader + off, full_lines, proof, safety_mode)
            _emit_masked(li, leader + off, masked_lines, proof, safety_mode)

        names = sorted(_free_names(full_lines + masked_lines, kernel))
        defaults = "".join(f", {nm}={nm}" for nm in names)
        lines.append(f"def _blk{leader}(mask, full{defaults}):")
        lines.append("    if full:")
        lines.extend(f"        {ln}" for ln in full_lines)
        lines.append("    else:")
        lines.extend(f"        {ln}" for ln in masked_lines)

    source = "\n".join(lines) + "\n"
    program = CompiledProgram(
        source=source,
        code=compile(source, f"<compiled kernel {kernel.name}>", "exec"),
        blocks=blocks,
    )
    kernel.backend_cache[cache_key] = (
        program if safety_mode == "checked" else (cert, program)
    )
    return program


def _free_names(lines: list[str], kernel: LoweredKernel) -> set[str]:
    """Names a block body references that must be bound as defaults."""
    import re

    pattern = re.compile(
        r"\b(I\d+|F\d+|H|np|_mem|_C|_MF|_trap|_lids|_lii|_gi|_resolve"
        r"|_tpi|_team|_nteams|_ws|_mty\d+|_mv\d+|_kp\d+)\b"
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


def _static_tables(kernel: LoweredKernel):
    """The per-PC dispatch tables that do not depend on executor state:
    everything :meth:`BlockExecutor._build_dispatch` computes except the
    handlers and the CBR register rows (cached as (bank, index) pairs)."""
    from repro.gpu.timing import cpi_of

    code = kernel.code
    cpi_list = [cpi_of(li.op) for li in code]
    is_control = [li.op in _CONTROL_OPS for li in code]
    br_target = [
        li.targets[0] if li.op is Opcode.BR else -1 for li in code
    ]
    cbr_static = [
        (li.args[0][0], li.args[0][1], li.targets[0], li.targets[1])
        if li.op is Opcode.CBR
        else None
        for li in code
    ]
    sync_pcs = frozenset(
        i for i, li in enumerate(code) if li.op in _SYNC_OPS
    )
    # Control ops that, on a uniform runnable set, neither move per-lane
    # PCs nor change the runnable set: the convergence they assert holds
    # by construction, so the run loop may stay on the uniform path
    # instead of re-deriving the schedule.
    stay_uniform = [
        li.op
        in (Opcode.BARRIER, Opcode.RED_ADD, Opcode.RED_MAX, Opcode.RED_MIN)
        for li in code
    ]
    return cpi_list, is_control, br_target, cbr_static, sync_pcs, stay_uniform


class CompiledBlockExecutor(BlockExecutor):
    """Runs one thread block through compiled basic-block closures.

    Control instructions, synchronization, and divergent stretches that
    do not chain through whole blocks fall back to the inherited
    interpreter machinery; straight-line runs take the compiled path.
    """

    def __init__(self, kernel: LoweredKernel, ctx: BlockContext):
        self._init_state(kernel, ctx)
        tables = kernel.backend_cache.get(_TABLES_KEY)
        if tables is None:
            tables = kernel.backend_cache[_TABLES_KEY] = _static_tables(kernel)
        (
            self._cpi_list,
            self._is_control,
            self._br_target,
            cbr_static,
            self._sync_pcs,
            self._stay_uniform,
        ) = tables
        iregs, fregs = self.iregs, self.fregs
        self._cbr_info = [
            None if s is None else ((fregs if s[0] else iregs)[s[1]], s[2], s[3])
            for s in cbr_static
        ]
        self._handlers = _LazyHandlers(self)
        program = compile_kernel(
            kernel,
            cert=kernel.backend_cache.get(SAFETY_CERT_KEY),
            safety_mode=ctx.safety_mode,
        )
        ns = self._bind_namespace()
        exec(program.code, ns)
        self._blocks = {
            leader: (ns[f"_blk{leader}"], end, count, cycles)
            for leader, (end, count, cycles) in program.blocks.items()
        }

    def _bind_namespace(self) -> dict:
        """The per-executor environment the block functions close over."""
        ctx = self.ctx
        ns: dict = {
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
            "_tpi": ctx.threads_per_instance,
            "_team": ctx.team_id,
            "_nteams": ctx.num_teams,
            "_ws": ctx.warp_size,
        }
        for i in range(self.kernel.num_iregs):
            ns[f"I{i}"] = self.iregs[i]
        for i in range(self.kernel.num_fregs):
            ns[f"F{i}"] = self.fregs[i]
        for pc, li in enumerate(self.kernel.code):
            if li.op in (Opcode.LOAD, Opcode.STORE):
                ns[f"_mty{pc}"] = li.mty
                # element view pre-resolved per site (the underlying
                # buffer is allocated once, so views never go stale)
                ns[f"_mv{pc}"] = ctx.memory._views[li.mty]
            elif li.op is Opcode.KPARAM:
                # handlers are lazy here, so the interpreter's
                # construction-time parameter check runs now instead
                try:
                    value = ctx.params[int(li.imm)]
                except IndexError:
                    raise DeviceTrap(
                        f"kernel {self.kernel.name!r} reads parameter "
                        f"#{li.imm} but only {len(ctx.params)} were passed",
                        team=ctx.team_id,
                    ) from None
                ns[f"_kp{pc}"] = float(value) if li.dest_f else int(value)
        return ns

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Interpreter-identical scheduling with a block-table fast path.

        Mirrors :meth:`BlockExecutor.run` exactly, except that when the
        uniform PC sits on a block leader, the whole straight-line body
        executes as one compiled call (its trace contribution batched via
        ``note_uniform_block``) and control resumes at the terminator.
        A divergent min-PC group on a leader chains through whole blocks
        the same way (``note_divergent_block``).  Mid-block entry and
        the remaining divergent steps use the inherited per-instruction
        machinery.
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
        blocks_get = self._blocks.get
        T = self.T

        runnable = status == RUNNABLE
        nrun = int(runnable.sum())
        divergent = True
        full = False
        mask = runnable
        cur = 0
        steps = 0

        with np.errstate(all="ignore"):
            while nrun > 0:
                if divergent:
                    sub = pc if nrun == T else pc[runnable]
                    cur = int(sub.min())
                    if int(sub.max()) == cur:
                        divergent = False
                        mask = runnable
                        full = nrun == T
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
                                fn, end, count, cycles = blk
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
                                fn(mask, False)
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
                    blk = blocks_get(cur)
                    if blk is not None:
                        fn, end, count, cycles = blk
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
                        fn(mask, full)
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
                        vals = row if full else row[mask]
                        first = vals[0]
                        if (vals == first).all():
                            cur = t_then if first else t_else
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


__all__ = [
    "CompiledBlockExecutor",
    "CompiledProgram",
    "SAFETY_CERT_KEY",
    "compile_kernel",
]
