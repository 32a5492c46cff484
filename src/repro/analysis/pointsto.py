"""Flow-insensitive, Andersen-style points-to / alias analysis.

Every pointer in the register IR is an i64 byte address, so "what can
this register address" is a set of abstract *memory objects*:

* ``global:<sym>`` — one object per module global (further classified by
  its flags: constant, ``team_local``, runtime-owned ``__`` prefix),
* ``stack:<fn>:<site>`` — one object per ``salloc`` site (per-thread
  private by construction),
* ``heap:<fn>:<site>`` — one object per heap allocation site: a ``call``
  to a ``malloc*`` symbol, or — after libc inlining — an ``atomic_add``
  whose address operand is the ``__heap_cursor`` runtime global,
* ``kparam`` — the launch-parameter block (argc/argv/ret arrays and the
  argument strings the loader marshals); shared by every instance of a
  launch and visible to the host,
* ``unknown`` — ⊤: anything else (escaped addresses, host-returned
  values, arithmetic on loaded integers).

The solver is a classic inclusion-based fixpoint over two maps —
``pts(reg)`` and ``contents(object)`` — with interprocedural flow along
the :mod:`~repro.analysis.callgraph` edges (arguments into parameters,
returned sets into call destinations).  It is deliberately
field-insensitive and flow-insensitive: sound, fast at our module sizes,
and precise enough to distinguish the four memory spaces the ensemble
optimizations care about.

Consumers:

* :mod:`repro.passes.barrier_elim` asks "can any thread-shared object be
  written on one side of this barrier and touched on the other",
* the alias-sharpened DCE/LICM ask "is this store provably private" /
  "is this load from provably read-only memory",
* ``repro.tools.lint --interproc`` reports the facts as diagnostics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.ir.instructions import Instr, Opcode, int_binops
from repro.ir.module import Module
from repro.ir.types import Reg, ScalarType

#: Heap allocator entry points recognized as allocation sites.
MALLOC_SYMBOLS = frozenset({"malloc", "malloc_i64", "malloc_f64", "calloc"})

#: The runtime global holding the bump-allocator cursor (see runtime.libc).
HEAP_CURSOR_SYM = "__heap_cursor"


class MemSpace(enum.Enum):
    """Visibility class of an abstract memory object."""

    STACK = "stack"  #: per-thread private (salloc)
    HEAP = "heap"  #: per-instance heap; shared by the instance's threads
    TEAM_SHARED = "team-shared"  #: globals relocated per team
    GLOBAL = "global"  #: module globals shared across all instances
    RUNTIME = "runtime"  #: ``__``-prefixed runtime state (shared by design)
    PARAM_BLOCK = "param-block"  #: launch argc/argv/ret block (host-visible)
    UNKNOWN = "unknown"  #: ⊤


@dataclass(frozen=True)
class MemObject:
    """One abstract memory object; ``key`` disambiguates per-site objects."""

    kind: str  # "global" | "stack" | "heap" | "kparam" | "unknown"
    key: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind}{':' + self.key if self.key else ''}>"


#: The ⊤ object and the launch-parameter block object (singletons).
UNKNOWN_OBJ = MemObject("unknown")
KPARAM_OBJ = MemObject("kparam")

#: Opcodes through which an address may flow register-to-register.
_FLOW_OPS = frozenset(int_binops()) | {
    Opcode.MOV,
    Opcode.SELECT,
    Opcode.SHFL_DOWN,
    Opcode.SHFL_IDX,
    Opcode.RED_ADD,
    Opcode.RED_MAX,
    Opcode.RED_MIN,
}

#: opcode -> index of the written address operand in ``args``.
WRITE_ADDR_POS = {
    Opcode.STORE: 0,
    Opcode.ATOMIC_ADD: 0,
    Opcode.ATOMIC_MAX: 0,
    Opcode.MEMCPY: 0,
    Opcode.MEMSET: 0,
}

#: opcode -> index of the read address operand in ``args`` (memcpy reads
#: through its source; loads and atomics read what they address too).
READ_ADDR_POS = {
    Opcode.LOAD: 0,
    Opcode.ATOMIC_ADD: 0,
    Opcode.ATOMIC_MAX: 0,
    Opcode.MEMCPY: 1,
}

_RegKey = tuple[str, int]


class PointsTo:
    """Module-wide Andersen-style points-to solution (solved eagerly)."""

    def __init__(self, module: Module, callgraph: CallGraph | None = None):
        self.module = module
        self.callgraph = callgraph or build_callgraph(module)
        self._pts: dict[_RegKey, set[MemObject]] = {}
        self._contents: dict[MemObject, set[MemObject]] = {
            UNKNOWN_OBJ: {UNKNOWN_OBJ},
            KPARAM_OBJ: {KPARAM_OBJ},
        }
        #: objects whose address was handed to the host through an RPC (or
        #: a pre-lowering extern call), transitively through their contents.
        self.rpc_visible: set[MemObject] = set()
        self._solve()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def pts(self, fn: str, reg: Reg | int) -> frozenset[MemObject]:
        """Objects register ``reg`` of function ``fn`` may address."""
        rid = reg.id if isinstance(reg, Reg) else reg
        return frozenset(self._pts.get((fn, rid), ()))

    def addr_objects(self, fn: str, instr: Instr, *, written: bool) -> frozenset[MemObject]:
        """Objects a memory instruction may write (or read) through.

        An empty points-to set for the address register means the address
        was derived from something the analysis cannot track, so the
        result degrades to ``{unknown}`` — never silently "nothing".
        """
        pos = (WRITE_ADDR_POS if written else READ_ADDR_POS).get(instr.op)
        if pos is None:
            return frozenset()
        regs = [a for a in instr.args if isinstance(a, Reg)]
        if pos >= len(regs):
            return frozenset({UNKNOWN_OBJ})
        objs = self.pts(fn, regs[pos])
        return objs if objs else frozenset({UNKNOWN_OBJ})

    def may_alias(self, objs_a, objs_b) -> bool:
        """May two object sets address overlapping memory?"""
        a, b = set(objs_a), set(objs_b)
        if not a or not b:
            return False
        if UNKNOWN_OBJ in a or UNKNOWN_OBJ in b:
            return True
        return bool(a & b)

    def space(self, obj: MemObject) -> MemSpace:
        """Visibility classification of one object."""
        if obj.kind == "stack":
            return MemSpace.STACK
        if obj.kind == "heap":
            return MemSpace.HEAP
        if obj.kind == "kparam":
            return MemSpace.PARAM_BLOCK
        if obj.kind == "global":
            g = self.module.globals.get(obj.key)
            if obj.key.startswith("__"):
                return MemSpace.RUNTIME
            if g is not None and g.team_local:
                return MemSpace.TEAM_SHARED
            return MemSpace.GLOBAL
        return MemSpace.UNKNOWN

    def thread_shared(self, objs) -> bool:
        """Is any object visible to more than one thread?

        Only per-thread stack allocations are thread-private; the
        per-instance heap is shared by every thread of the instance's
        team, and everything else is wider still.
        """
        return any(self.space(o) is not MemSpace.STACK for o in objs)

    def address_taken(self) -> frozenset[MemObject]:
        """Objects whose address was stored *into memory* somewhere.

        Such an object can be re-loaded through another pointer, so
        "no direct load from it" does not mean "never read".  The two
        singleton identity entries (⊤ contains ⊤, the kparam block
        contains itself) are not address-taking.
        """
        objs: set[MemObject] = set()
        for holder, cont in self._contents.items():
            objs |= cont - {holder}
        return frozenset(objs)

    def instance_shared(self, objs) -> bool:
        """Is any object visible across *ensemble instances*?"""
        return any(
            self.space(o)
            in (
                MemSpace.GLOBAL,
                MemSpace.RUNTIME,
                MemSpace.PARAM_BLOCK,
                MemSpace.UNKNOWN,
            )
            for o in objs
        )

    # ------------------------------------------------------------------
    # the solver
    # ------------------------------------------------------------------
    def _get(self, key: _RegKey) -> set[MemObject]:
        got = self._pts.get(key)
        if got is None:
            got = set()
            self._pts[key] = got
        return got

    def _cont(self, obj: MemObject) -> set[MemObject]:
        got = self._contents.get(obj)
        if got is None:
            got = set()
            self._contents[obj] = got
        return got

    def _add(self, key: _RegKey, objs) -> bool:
        tgt = self._get(key)
        before = len(tgt)
        tgt.update(objs)
        return len(tgt) != before

    def _solve(self) -> None:
        module = self.module
        returns: dict[str, set[MemObject]] = {
            name: set() for name in module.functions
        }
        changed = True
        while changed:
            changed = False
            for fn in module.functions.values():
                for block in fn.iter_blocks():
                    for index, instr in enumerate(block.instrs):
                        site = f"{fn.name}:{block.label}:{index}"
                        changed |= self._transfer(fn.name, site, instr, returns)
        self._close_rpc_visible()

    def _transfer(self, fname: str, site: str, instr: Instr, returns) -> bool:
        op = instr.op
        changed = False
        dest = instr.dest
        dkey = (fname, dest.id) if dest is not None else None

        if op is Opcode.GADDR and dkey is not None:
            return self._add(dkey, {MemObject("global", instr.sym)})
        if op is Opcode.SALLOC and dkey is not None:
            return self._add(dkey, {MemObject("stack", site)})
        if op is Opcode.KPARAM and dkey is not None:
            # Parameters 1..4 are device addresses into the marshalled
            # launch block; parameter 0 is a count.  Flow-insensitively we
            # cannot tell them apart, so all kparams get the block object —
            # an over-approximation in exactly the safe direction.
            return self._add(dkey, {KPARAM_OBJ})

        if op in _FLOW_OPS and dest is not None and dest.ty is ScalarType.I64:
            srcs: set[MemObject] = set()
            for r in instr.regs_read():
                srcs |= self._get((fname, r.id))
            if srcs:
                changed |= self._add(dkey, srcs)
            return changed

        if op is Opcode.LOAD and dest is not None and dest.ty is ScalarType.I64:
            for obj in self.addr_objects(fname, instr, written=False):
                changed |= self._add(dkey, self._cont(obj))
            return changed

        if op is Opcode.STORE:
            regs = [a for a in instr.args if isinstance(a, Reg)]
            if len(regs) >= 2 and regs[1].ty is ScalarType.I64:
                val = self._get((fname, regs[1].id))
                if val:
                    for obj in self.addr_objects(fname, instr, written=True):
                        cont = self._cont(obj)
                        before = len(cont)
                        cont.update(val)
                        changed |= len(cont) != before
            return changed

        if op in (Opcode.ATOMIC_ADD, Opcode.ATOMIC_MAX) and dest is not None:
            addr_objs = self.addr_objects(fname, instr, written=True)
            heap_cursor = MemObject("global", HEAP_CURSOR_SYM)
            if instr.op is Opcode.ATOMIC_ADD and heap_cursor in addr_objs:
                # The inlined libc allocator: the fetched cursor IS a fresh
                # per-instance heap allocation.
                changed |= self._add(dkey, {MemObject("heap", site)})
            for obj in addr_objs:
                changed |= self._add(dkey, self._cont(obj))
            return changed

        if op is Opcode.MEMCPY:
            regs = [a for a in instr.args if isinstance(a, Reg)]
            if len(regs) >= 2:
                payload: set[MemObject] = set()
                for src_obj in self.pts(fname, regs[1]) or {UNKNOWN_OBJ}:
                    payload |= self._cont(src_obj)
                if payload:
                    for dst_obj in self.pts(fname, regs[0]) or {UNKNOWN_OBJ}:
                        cont = self._cont(dst_obj)
                        before = len(cont)
                        cont.update(payload)
                        changed |= len(cont) != before
            return changed

        if op is Opcode.CALL:
            if instr.callee in MALLOC_SYMBOLS and dkey is not None:
                # Heap cloning at the allocator boundary: every call to a
                # known allocator wrapper gets its *own* heap object, even
                # when the wrapper body is linked into the module — without
                # this, all allocations would collapse into the one
                # cursor-bump site inside ``malloc`` and alias each other.
                return self._add(dkey, {MemObject("heap", site)})
            callee = self.module.functions.get(instr.callee)
            if callee is None:
                # Host extern (pre-RPC-lowering) or undefined: arguments
                # escape to the host, results are unknown.
                for r in instr.regs_read():
                    self.rpc_visible |= self._get((fname, r.id))
                if dkey is not None and dest.ty is ScalarType.I64:
                    return self._add(dkey, {UNKNOWN_OBJ})
                return changed
            for param_reg, arg in zip(callee.param_regs, instr.args):
                if isinstance(arg, Reg):
                    src = self._get((fname, arg.id))
                    if src:
                        changed |= self._add((callee.name, param_reg.id), src)
            ret = returns.setdefault(callee.name, set())
            for block in callee.iter_blocks():
                term = block.terminator
                if term is not None and term.op is Opcode.RETVAL:
                    for r in term.regs_read():
                        ret |= self._get((callee.name, r.id))
            if dkey is not None and dest.ty is ScalarType.I64 and ret:
                changed |= self._add(dkey, ret)
            return changed

        if op is Opcode.RPC:
            for r in instr.regs_read():
                self.rpc_visible |= self._get((fname, r.id))
            if dkey is not None and dest.ty is ScalarType.I64:
                changed |= self._add(dkey, {UNKNOWN_OBJ})
            return changed

        return False

    def _close_rpc_visible(self) -> None:
        """Anything reachable from an RPC-visible object is RPC-visible."""
        self.rpc_visible.add(KPARAM_OBJ)
        work = list(self.rpc_visible)
        while work:
            obj = work.pop()
            for nxt in self._contents.get(obj, ()):
                if nxt not in self.rpc_visible:
                    self.rpc_visible.add(nxt)
                    work.append(nxt)


__all__ = [
    "KPARAM_OBJ",
    "MALLOC_SYMBOLS",
    "MemObject",
    "MemSpace",
    "PointsTo",
    "READ_ADDR_POS",
    "UNKNOWN_OBJ",
    "WRITE_ADDR_POS",
]
