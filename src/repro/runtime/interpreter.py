"""SIMT interpreter: executes one thread block of a lowered kernel.

Design
------
* Registers live in two banks shaped ``[num_regs, lanes]`` (int64 / float64),
  so every instruction executes **vectorized across the block's lanes** with
  a boolean active mask — the numpy equivalent of SIMT execution.
* Each lane has its own program counter.  Scheduling is *min-PC lockstep*:
  every step executes the instruction at the smallest PC among runnable
  lanes, with exactly the lanes sitting at that PC active.  Divergent paths
  serialize and reconverge where PCs meet again; because lowering lays
  blocks out in reverse post-order, join points run only after all feeding
  paths have arrived, which gives barriers/reductions their OpenMP
  semantics for structured code.
* Instances: a block hosts ``M`` application instances of ``G`` threads each
  (M=1 for the paper's main scheme; M>1 implements the packed
  ``(N/M, M, 1)`` mapping).  An instance starts with only its *initial
  thread* runnable (sequential host semantics).  ``par_begin`` wakes the
  instance's other lanes and broadcasts the initial thread's registers;
  ``par_end`` is an implicit barrier that parks them again.

Each instruction handler is a closure pre-specialized at block setup
(operand rows bound once), keeping the per-step Python overhead low enough
to run the full Figure-6 sweep in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import DeviceTrap, MemoryFault
from repro.gpu.memory import GlobalMemory
from repro.ir.instructions import Opcode
from repro.ir.types import MemType
from repro.runtime.backend import DEFAULT_MAX_STEPS, DEFAULT_SAFETY_MODE
from repro.runtime.machine import LInstr, LoweredKernel
from repro.runtime.trace import TraceCollector

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

RUNNABLE = 0
PARKED = 1
DONE = 2


@dataclass
class RpcLane:
    """Identity of the lane performing an RPC (handlers may use it to key
    per-instance output streams)."""

    team: int
    instance: int
    lane: int


@dataclass
class BlockContext:
    """Per-block execution context handed to the executor by the device."""

    memory: GlobalMemory
    resolve: Callable[[str], int]  # symbol -> device address (team-local aware)
    params: tuple
    team_id: int
    num_teams: int
    instances_per_team: int
    threads_per_instance: int
    stack_base: int
    stack_bytes: int
    rpc: Callable[[str, list, RpcLane], float | int | None] | None = None
    warp_size: int = 32
    max_steps: int = DEFAULT_MAX_STEPS
    collector: TraceCollector | None = None
    safety_mode: str = DEFAULT_SAFETY_MODE
    """Guard policy for backends that consult safety certificates (one of
    :data:`~repro.runtime.backend.SAFETY_MODES`).  The interpreter
    backend always runs fully guarded; the compiled backend elides guards
    at certificate-PROVEN sites unless ``"checked"``."""
    shared_range: tuple[int, int] | None = None
    """Device-address range [lo, hi) backed by on-chip shared memory for
    this team (the team-local globals region).  Accesses inside it are
    SRAM traffic: the trace collector counts them separately and they never
    reach the L2/DRAM models."""
    tracer: Tracer | None = None
    """Where backends that generate code at launch record it
    (``codegen <kernel>`` spans on the ``compiler`` track)."""


_INT_BIN_FUNCS = {
    Opcode.ADD: np.add,
    Opcode.SUB: np.subtract,
    Opcode.MUL: np.multiply,
    Opcode.AND: np.bitwise_and,
    Opcode.OR: np.bitwise_or,
    Opcode.XOR: np.bitwise_xor,
    Opcode.IMIN: np.minimum,
    Opcode.IMAX: np.maximum,
}
_FLT_BIN_FUNCS = {
    Opcode.FADD: np.add,
    Opcode.FSUB: np.subtract,
    Opcode.FMUL: np.multiply,
    Opcode.FDIV: np.divide,
    Opcode.FMIN: np.minimum,
    Opcode.FMAX: np.maximum,
    Opcode.FPOW: np.power,
}
_ICMP_FUNCS = {
    Opcode.ICMP_EQ: np.equal,
    Opcode.ICMP_NE: np.not_equal,
    Opcode.ICMP_SLT: np.less,
    Opcode.ICMP_SLE: np.less_equal,
    Opcode.ICMP_SGT: np.greater,
    Opcode.ICMP_SGE: np.greater_equal,
}
_FCMP_FUNCS = {
    Opcode.FCMP_EQ: np.equal,
    Opcode.FCMP_NE: np.not_equal,
    Opcode.FCMP_LT: np.less,
    Opcode.FCMP_LE: np.less_equal,
    Opcode.FCMP_GT: np.greater,
    Opcode.FCMP_GE: np.greater_equal,
}
_MATH_FUNCS = {
    Opcode.SQRT: np.sqrt,
    Opcode.EXP: np.exp,
    Opcode.LOG: np.log,
    Opcode.SIN: np.sin,
    Opcode.COS: np.cos,
    Opcode.TAN: np.tan,
    Opcode.FABS: np.abs,
    Opcode.FLOOR: np.floor,
    Opcode.CEIL: np.ceil,
    Opcode.FNEG: np.negative,
}

_SYNC_OPS = frozenset(
    {Opcode.BARRIER, Opcode.PAR_END, Opcode.RED_ADD, Opcode.RED_MAX, Opcode.RED_MIN}
)

#: Ops the uniform fast path must flush PCs for and re-schedule after
#: (they change the runnable set or per-lane PCs).  Shared with the
#: compiled backend, whose basic blocks end at these plus BR/CBR.
_CONTROL_OPS = _SYNC_OPS | frozenset(
    {Opcode.RET, Opcode.RETVAL, Opcode.TRAP, Opcode.PAR_BEGIN}
)


class BlockExecutor:
    """Runs one thread block of a kernel to completion."""

    def __init__(self, kernel: LoweredKernel, ctx: BlockContext):
        self._init_state(kernel, ctx)
        self._build_dispatch()

    def _init_state(self, kernel: LoweredKernel, ctx: BlockContext) -> None:
        """Register banks, lane identity, stacks, and parameter binding —
        the state shared by every execution backend."""
        self.kernel = kernel
        self.ctx = ctx
        M = ctx.instances_per_team
        G = ctx.threads_per_instance
        ws = ctx.warp_size
        lanes = M * G
        self.lanes_used = lanes
        self.T = -(-lanes // ws) * ws  # padded to a warp multiple
        self.num_warps = self.T // ws

        self.pc = np.zeros(self.T, dtype=np.int64)
        self.status = np.full(self.T, PARKED, dtype=np.int8)
        self.iregs = np.zeros((kernel.num_iregs, self.T), dtype=np.int64)
        self.fregs = np.zeros((kernel.num_fregs, self.T), dtype=np.float64)

        self.lane_ids = np.arange(self.T, dtype=np.int64)
        self.instance_of = np.minimum(self.lane_ids // G, M - 1)
        self.lane_in_instance = self.lane_ids - self.instance_of * G
        self.global_instance = ctx.team_id * M + self.instance_of
        self.main_lanes = np.arange(M, dtype=np.int64) * G

        # per-lane stacks
        self.sp = (
            ctx.stack_base
            + (ctx.team_id * self.T + self.lane_ids) * ctx.stack_bytes
        ).astype(np.int64)
        self.stack_limit = self.sp + ctx.stack_bytes

        # initial threads runnable; everyone else parked
        self.status[self.main_lanes] = RUNNABLE

        # bind launch parameters into parameter registers (broadcast)
        for value, (is_f, idx) in zip(ctx.params, kernel.param_slots):
            bank = self.fregs if is_f else self.iregs
            bank[idx, :] = float(value) if is_f else int(value)

        self.steps = 0

    def _build_dispatch(self) -> None:
        """Pre-specialized handlers plus the per-PC fast-path tables.

        Separated from :meth:`_init_state` so the compiled backend can
        substitute lazy handlers and kernel-cached tables."""
        kernel = self.kernel
        self._handlers = [self._make_handler(li) for li in kernel.code]
        self._sync_pcs = {
            i for i, li in enumerate(kernel.code) if li.op in _SYNC_OPS
        }
        # precomputed per-PC dispatch tables for the fast path
        from repro.gpu.timing import cpi_of

        self._cpi_list = [cpi_of(li.op) for li in kernel.code]
        self._is_control = [li.op in _CONTROL_OPS for li in kernel.code]
        self._br_target = [
            li.targets[0] if li.op is Opcode.BR else -1 for li in kernel.code
        ]
        self._cbr_info = [
            (self._row(li.args[0]), li.targets[0], li.targets[1])
            if li.op is Opcode.CBR
            else None
            for li in kernel.code
        ]

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Execute the block to completion.

        Two regimes:

        * **uniform fast path** — every runnable lane sits at the same PC
          (`mask is runnable`); the per-lane PC array is kept *stale* and a
          scalar ``cur`` tracks the common PC, so straight-line code costs
          one handler call per instruction.  Unconditional branches and
          conditional branches whose outcome is warp-uniform stay on this
          path.
        * **divergent slow path** — lanes disagree; min-PC lockstep
          scheduling recomputes the active mask every step until the PCs
          reconverge, at which point the fast path resumes.

        Before any control/synchronization handler runs, the PC array is
        flushed so handlers that read per-lane PCs see consistent state.
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

        runnable = status == RUNNABLE
        nrun = int(runnable.sum())
        divergent = True
        mask = runnable
        cur = 0
        steps = 0
        # the open uniform stretch's issue cycles and instructions, handed
        # to the collector where the warp set or the phase may change
        ucyc = 0.0
        uins = 0

        try:
            with np.errstate(all="ignore"):
                while nrun > 0:
                    if divergent:
                        cur = int(pc[runnable].min())
                        mask = runnable & (pc == cur)
                        if int(mask.sum()) == nrun:
                            divergent = False
                            mask = runnable
                            if collector is not None:
                                collector.begin_uniform(
                                    mask.reshape(self.num_warps, ws).any(axis=1)
                                )

                    steps += 1
                    if steps > max_steps:
                        raise self._livelock(steps)

                    if not divergent:
                        # ---- uniform fast path ----------------------------
                        if collector is not None:
                            ucyc += cpi_list[cur]
                            uins += 1
                        bt = br_target[cur]
                        if bt >= 0:  # unconditional branch
                            cur = bt
                            continue
                        info = cbr_info[cur]
                        if info is not None:  # conditional branch
                            row, t_then, t_else = info
                            vals = row[mask]
                            first = vals[0]
                            if (vals == first).all():
                                cur = t_then if first else t_else
                                continue
                            pc[mask] = np.where(vals != 0, t_then, t_else)
                            divergent = True
                            if collector is not None:
                                collector.end_uniform(ucyc, uins)
                                ucyc = 0.0
                                uins = 0
                            continue
                        if is_control[cur]:
                            pc[mask] = cur  # flush logical PCs
                            if collector is not None:
                                # the handler may close a phase
                                collector.end_uniform(ucyc, uins)
                                ucyc = 0.0
                                uins = 0
                            advanced = handlers[cur](mask)
                            if not advanced:
                                pc[mask] = cur + 1
                            runnable = status == RUNNABLE
                            nrun = int(runnable.sum())
                            divergent = True
                            continue
                        handlers[cur](mask)  # plain vector op
                        cur += 1
                        continue

                    # ---- divergent slow path ------------------------------
                    if collector is not None:
                        warp_mask = mask.reshape(self.num_warps, ws).any(axis=1)
                        collector.on_instr(code[cur].op, warp_mask)
                    advanced = handlers[cur](mask)
                    if not advanced:
                        pc[mask] = cur + 1
                    if is_control[cur]:
                        runnable = status == RUNNABLE
                        nrun = int(runnable.sum())
        finally:
            # a trap ends the team: its last stretch still counts whole
            if collector is not None and uins:
                collector.note_uniform_block(ucyc, uins)
        self.steps = steps

    # ------------------------------------------------------------------
    # handler construction
    # ------------------------------------------------------------------
    def _row(self, operand: tuple) -> np.ndarray:
        is_f, idx = operand
        return (self.fregs if is_f else self.iregs)[idx]

    def _dest_row(self, li: LInstr) -> np.ndarray:
        return (self.fregs if li.dest_f else self.iregs)[li.dest]

    def _livelock(self, steps: int) -> DeviceTrap:
        """Record the ``steps`` retired and return the step-cap trap for
        the run loop to raise."""
        self.steps = steps
        return DeviceTrap(
            f"kernel {self.kernel.name!r} exceeded "
            f"{self.ctx.max_steps} interpreter steps (livelock?)",
            team=self.ctx.team_id,
        )

    def _trap(self, msg: str, mask: np.ndarray) -> None:
        lane = int(np.flatnonzero(mask)[0]) if mask.any() else None
        raise DeviceTrap(msg, team=self.ctx.team_id, thread=lane)

    def _make_handler(self, li: LInstr) -> Callable[[np.ndarray], bool]:
        op = li.op

        if op in _INT_BIN_FUNCS:
            func = _INT_BIN_FUNCS[op]
            a, b = self._row(li.args[0]), self._row(li.args[1])
            d = self._dest_row(li)

            def h(mask, a=a, b=b, d=d, func=func):
                d[mask] = func(a[mask], b[mask])
                return False

            return h

        if op in (Opcode.SDIV, Opcode.SREM):
            a, b = self._row(li.args[0]), self._row(li.args[1])
            d = self._dest_row(li)
            rem = op is Opcode.SREM

            def h(mask, a=a, b=b, d=d, rem=rem):
                av, bv = a[mask], b[mask]
                if (bv == 0).any():
                    self._trap("integer division by zero", mask)
                q = np.sign(av) * np.sign(bv) * (np.abs(av) // np.abs(bv))
                d[mask] = (av - q * bv) if rem else q
                return False

            return h

        if op in (Opcode.SHL, Opcode.ASHR):
            a, b = self._row(li.args[0]), self._row(li.args[1])
            d = self._dest_row(li)
            left = op is Opcode.SHL

            def h(mask, a=a, b=b, d=d, left=left):
                av, sv = a[mask], b[mask] & 63
                d[mask] = (av << sv) if left else (av >> sv)
                return False

            return h

        if op in _FLT_BIN_FUNCS:
            func = _FLT_BIN_FUNCS[op]
            a, b = self._row(li.args[0]), self._row(li.args[1])
            d = self._dest_row(li)

            def h(mask, a=a, b=b, d=d, func=func):
                d[mask] = func(a[mask], b[mask])
                return False

            return h

        if op in _ICMP_FUNCS or op in _FCMP_FUNCS:
            func = (_ICMP_FUNCS | _FCMP_FUNCS)[op]
            a, b = self._row(li.args[0]), self._row(li.args[1])
            d = self._dest_row(li)

            def h(mask, a=a, b=b, d=d, func=func):
                d[mask] = func(a[mask], b[mask]).astype(np.int64)
                return False

            return h

        if op in _MATH_FUNCS:
            func = _MATH_FUNCS[op]
            a = self._row(li.args[0])
            d = self._dest_row(li)

            def h(mask, a=a, d=d, func=func):
                d[mask] = func(a[mask])
                return False

            return h

        if op in (Opcode.INEG, Opcode.BNOT):
            a = self._row(li.args[0])
            d = self._dest_row(li)
            func = np.negative if op is Opcode.INEG else np.invert

            def h(mask, a=a, d=d, func=func):
                d[mask] = func(a[mask])
                return False

            return h

        if op is Opcode.SITOFP:
            a = self._row(li.args[0])
            d = self._dest_row(li)

            def h(mask, a=a, d=d):
                d[mask] = a[mask].astype(np.float64)
                return False

            return h

        if op is Opcode.FPTOSI:
            a = self._row(li.args[0])
            d = self._dest_row(li)

            def h(mask, a=a, d=d):
                av = a[mask]
                if not np.isfinite(av).all():
                    self._trap("float-to-int conversion of non-finite value", mask)
                d[mask] = np.trunc(av).astype(np.int64)
                return False

            return h

        if op in (Opcode.MOVI, Opcode.MOVF):
            d = self._dest_row(li)
            imm = int(li.imm) if op is Opcode.MOVI else float(li.imm)

            def h(mask, d=d, imm=imm):
                d[mask] = imm
                return False

            return h

        if op is Opcode.MOV:
            a = self._row(li.args[0])
            d = self._dest_row(li)

            def h(mask, a=a, d=d):
                d[mask] = a[mask]
                return False

            return h

        if op is Opcode.SELECT:
            c = self._row(li.args[0])
            a = self._row(li.args[1])
            b = self._row(li.args[2])
            d = self._dest_row(li)

            def h(mask, c=c, a=a, b=b, d=d):
                d[mask] = np.where(c[mask] != 0, a[mask], b[mask])
                return False

            return h

        if op is Opcode.LOAD:
            a = self._row(li.args[0])
            d = self._dest_row(li)
            mty: MemType = li.mty
            offset = li.offset
            mem = self.ctx.memory
            collector = self.ctx.collector

            def h(mask, a=a, d=d, mty=mty, offset=offset, mem=mem, collector=collector):
                addrs = a[mask] + offset
                try:
                    d[mask] = mem.gather(addrs, mty)
                except MemoryFault as exc:
                    self._trap(exc.message, mask)
                if collector is not None:
                    collector.log_masked(mask, addrs)
                return False

            return h

        if op is Opcode.STORE:
            a = self._row(li.args[0])
            v = self._row(li.args[1])
            mty = li.mty
            offset = li.offset
            mem = self.ctx.memory
            collector = self.ctx.collector

            def h(mask, a=a, v=v, mty=mty, offset=offset, mem=mem, collector=collector):
                addrs = a[mask] + offset
                try:
                    mem.scatter(addrs, v[mask], mty)
                except MemoryFault as exc:
                    self._trap(exc.message, mask)
                if collector is not None:
                    collector.log_masked(mask, addrs)
                return False

            return h

        if op in (Opcode.ATOMIC_ADD, Opcode.ATOMIC_MAX):
            a = self._row(li.args[0])
            v = self._row(li.args[1])
            d = self._dest_row(li)
            mty = li.mty
            mem = self.ctx.memory
            is_add = op is Opcode.ATOMIC_ADD
            collector = self.ctx.collector

            def h(mask, a=a, v=v, d=d, mty=mty, mem=mem, is_add=is_add, collector=collector):
                addrs = a[mask]
                try:
                    if is_add:
                        d[mask] = mem.fetch_add(addrs, v[mask], mty)
                    else:
                        d[mask] = mem.fetch_max(addrs, v[mask], mty)
                except MemoryFault as exc:
                    self._trap(exc.message, mask)
                if collector is not None:
                    collector.log_masked(mask, addrs)
                return False

            return h

        if op is Opcode.GADDR:
            d = self._dest_row(li)
            sym = li.sym
            resolve = self.ctx.resolve

            def h(mask, d=d, sym=sym, resolve=resolve):
                d[mask] = resolve(sym)
                return False

            return h

        if op is Opcode.SALLOC:
            d = self._dest_row(li)
            size = (int(li.imm) + 7) & ~7

            def h(mask, d=d, size=size):
                new_sp = self.sp[mask] + size
                if (new_sp > self.stack_limit[mask]).any():
                    self._trap(
                        f"device stack overflow (stack_bytes="
                        f"{self.ctx.stack_bytes}; raise stack_bytes at launch)",
                        mask,
                    )
                d[mask] = self.sp[mask]
                self.sp[mask] = new_sp
                return False

            return h

        if op is Opcode.KPARAM:
            d = self._dest_row(li)
            try:
                value = self.ctx.params[int(li.imm)]
            except IndexError:
                raise DeviceTrap(
                    f"kernel {self.kernel.name!r} reads parameter #{li.imm} but "
                    f"only {len(self.ctx.params)} were passed",
                    team=self.ctx.team_id,
                ) from None
            value = float(value) if li.dest_f else int(value)

            def h(mask, d=d, value=value):
                d[mask] = value
                return False

            return h

        if op is Opcode.BR:
            target = li.targets[0]

            def h(mask, target=target):
                self.pc[mask] = target
                return True

            return h

        if op is Opcode.CBR:
            c = self._row(li.args[0])
            t_then, t_else = li.targets

            def h(mask, c=c, t_then=t_then, t_else=t_else):
                self.pc[mask] = np.where(c[mask] != 0, t_then, t_else)
                return True

            return h

        if op in (Opcode.RET, Opcode.RETVAL):

            def h(mask):
                self.status[mask] = DONE
                return True

            return h

        if op is Opcode.TRAP:
            msg = li.sym or "trap"

            def h(mask, msg=msg):
                self._trap(msg, mask)
                return True

            return h

        if op is Opcode.TID:
            d = self._dest_row(li)

            def h(mask, d=d):
                d[mask] = self.lane_in_instance[mask]
                return False

            return h

        if op is Opcode.NTID:
            d = self._dest_row(li)
            g = self.ctx.threads_per_instance

            def h(mask, d=d, g=g):
                d[mask] = g
                return False

            return h

        if op is Opcode.CTAID:
            d = self._dest_row(li)
            t = self.ctx.team_id

            def h(mask, d=d, t=t):
                d[mask] = t
                return False

            return h

        if op is Opcode.NCTAID:
            d = self._dest_row(li)
            n = self.ctx.num_teams

            def h(mask, d=d, n=n):
                d[mask] = n
                return False

            return h

        if op is Opcode.LANEID:
            d = self._dest_row(li)
            ws = self.ctx.warp_size

            def h(mask, d=d, ws=ws):
                d[mask] = self.lane_ids[mask] % ws
                return False

            return h

        if op is Opcode.INSTANCE:
            d = self._dest_row(li)

            def h(mask, d=d):
                d[mask] = self.global_instance[mask]
                return False

            return h

        if op is Opcode.PAR_BEGIN:
            return self._handler_par_begin

        if op is Opcode.PAR_END:
            return self._handler_par_end

        if op is Opcode.BARRIER:

            def h(mask):
                self._check_converged(mask, "barrier")
                return False

            return h

        if op in (Opcode.RED_ADD, Opcode.RED_MAX, Opcode.RED_MIN):
            a = self._row(li.args[0])
            d = self._dest_row(li)
            func = {
                Opcode.RED_ADD: np.sum,
                Opcode.RED_MAX: np.max,
                Opcode.RED_MIN: np.min,
            }[op]

            def h(mask, a=a, d=d, func=func):
                self._check_converged(mask, "reduction")
                for inst in np.unique(self.instance_of[mask]):
                    imask = mask & (self.instance_of == inst)
                    d[imask] = func(a[imask])
                return False

            return h

        if op in (Opcode.SHFL_DOWN, Opcode.SHFL_IDX):
            v = self._row(li.args[0])
            sel = self._row(li.args[1])
            d = self._dest_row(li)
            ws = self.ctx.warp_size
            down = op is Opcode.SHFL_DOWN

            def h(mask, v=v, sel=sel, d=d, ws=ws, down=down):
                lanes = self.lane_ids[mask]
                if down:
                    src = lanes + sel[mask]
                else:
                    src = (lanes // ws) * ws + (sel[mask] % ws)
                # out-of-warp or inactive source lanes return the caller's
                # own value, like CUDA's __shfl_*_sync with a full mask
                same_warp = (src // ws) == (lanes // ws)
                in_range = (src >= 0) & (src < self.T)
                src_clamped = np.clip(src, 0, self.T - 1)
                active = mask[src_clamped]
                ok = same_warp & in_range & active
                d[mask] = np.where(ok, v[src_clamped], v[mask])
                return False

            return h

        if op is Opcode.RPC:
            return self._make_rpc_handler(li)

        if op is Opcode.MEMCPY:
            dst_r = self._row(li.args[0])
            src_r = self._row(li.args[1])
            n_r = self._row(li.args[2])
            mem = self.ctx.memory

            def h(mask, dst_r=dst_r, src_r=src_r, n_r=n_r, mem=mem):
                for lane in np.flatnonzero(mask):
                    n = int(n_r[lane])
                    if n > 0:
                        mem.write_bytes(int(dst_r[lane]), mem.read_bytes(int(src_r[lane]), n))
                return False

            return h

        if op is Opcode.MEMSET:
            dst_r = self._row(li.args[0])
            byte_r = self._row(li.args[1])
            n_r = self._row(li.args[2])
            mem = self.ctx.memory

            def h(mask, dst_r=dst_r, byte_r=byte_r, n_r=n_r, mem=mem):
                for lane in np.flatnonzero(mask):
                    n = int(n_r[lane])
                    if n > 0:
                        mem.write_bytes(int(dst_r[lane]), bytes([int(byte_r[lane]) & 0xFF]) * n)
                return False

            return h

        raise DeviceTrap(f"unimplemented opcode {op.name}")  # pragma: no cover

    # ------------------------------------------------------------------
    # parallel-region machinery
    # ------------------------------------------------------------------
    def _handler_par_begin(self, mask: np.ndarray) -> bool:
        G = self.ctx.threads_per_instance
        collector = self.ctx.collector
        next_pc = None
        for lane in np.flatnonzero(mask):
            inst = int(self.instance_of[lane])
            base = inst * G
            sl = slice(base, base + G)
            # wake the instance's worker lanes with a snapshot of the initial
            # thread's registers (the shared-memory broadcast of real runtimes)
            if next_pc is None:
                next_pc = int(self.pc[lane]) + 1
            self.iregs[:, sl] = self.iregs[:, lane : lane + 1]
            self.fregs[:, sl] = self.fregs[:, lane : lane + 1]
            self.status[sl] = RUNNABLE
            self.pc[sl] = next_pc
            if collector is not None:
                collector.on_parallel_enter()
        return True

    def _handler_par_end(self, mask: np.ndarray) -> bool:
        self._check_converged(mask, "par_end")
        G = self.ctx.threads_per_instance
        collector = self.ctx.collector
        for inst in np.unique(self.instance_of[mask]):
            base = int(inst) * G
            sl = slice(base, base + G)
            park = np.zeros(self.T, dtype=bool)
            park[sl] = True
            park[base] = False  # the initial thread survives
            self.status[park & mask] = PARKED
            if collector is not None:
                collector.on_parallel_exit()
        return False  # initial thread advances normally

    def _check_converged(self, mask: np.ndarray, what: str) -> None:
        """All non-parked, non-done lanes of every participating instance
        must sit at this instruction; anything else is the OpenMP UB of a
        barrier not encountered by all threads — flagged loudly."""
        for inst in np.unique(self.instance_of[mask]):
            imask = self.instance_of == inst
            expected = imask & (self.status == RUNNABLE)
            if not np.array_equal(expected & mask, expected):
                raise DeviceTrap(
                    f"{what} not reached by all threads of instance {int(inst)} "
                    "(divergent synchronization)",
                    team=self.ctx.team_id,
                )

    # ------------------------------------------------------------------
    def _make_rpc_handler(self, li: LInstr) -> Callable[[np.ndarray], bool]:
        service = li.service
        rows = [self._row(a) for a in li.args]
        is_f = [a[0] for a in li.args]
        d = self._dest_row(li) if li.dest >= 0 else None
        dest_f = li.dest_f

        def h(mask):
            rpc = self.ctx.rpc
            if rpc is None:
                self._trap(f"RPC service {service!r} called but no host RPC endpoint", mask)
            for lane in np.flatnonzero(mask):
                args = [
                    float(r[lane]) if f else int(r[lane]) for r, f in zip(rows, is_f)
                ]
                lane_ctx = RpcLane(
                    team=self.ctx.team_id,
                    instance=int(self.global_instance[lane]),
                    lane=int(lane),
                )
                result = rpc(service, args, lane_ctx)
                if d is not None:
                    d[lane] = float(result or 0.0) if dest_f else int(result or 0)
            return False

        return h
