"""IR containers: basic blocks, functions, global variables, modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.errors import IRError, LinkError
from repro.ir.instructions import Instr, Opcode
from repro.ir.types import MemType, Reg, ScalarType


@dataclass(slots=True)
class Block:
    """A labeled basic block: a straight-line instruction list ending in a
    terminator (enforced by the verifier, not the container)."""

    label: str
    instrs: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr | None:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None

    def successors(self) -> tuple[str, ...]:
        term = self.terminator
        if term is None:
            return ()
        return tuple(term.targets)

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)


class Function:
    """A device function.

    Attributes
    ----------
    name:
        Symbol name; the ``rename_main`` pass rewrites ``main`` to
        ``__user_main`` exactly like the paper's user-wrapper header.
    params:
        ``(name, type)`` pairs.  Parameter registers are the first
        ``len(params)`` registers allocated by the builder.
    ret_ty:
        ``I64``/``F64``/``VOID``.
    is_kernel:
        Kernels are host-launchable entry points (the loaders build them);
        ordinary device functions are inlined away before execution.
    declare_target / nohost:
        Flags set by the declare-target pass, mirroring
        ``#pragma omp declare target device_type(nohost)``.
    """

    def __init__(
        self,
        name: str,
        params: Iterable[tuple[str, ScalarType]] = (),
        ret_ty: ScalarType = ScalarType.VOID,
        *,
        is_kernel: bool = False,
    ):
        self.name = name
        self.params: list[tuple[str, ScalarType]] = list(params)
        self.ret_ty = ret_ty
        self.is_kernel = is_kernel
        self.declare_target = False
        self.nohost = False
        self.blocks: dict[str, Block] = {}
        self.block_order: list[str] = []
        self.next_reg = 0
        self.param_regs: list[Reg] = []
        for pname, pty in self.params:
            if pty is ScalarType.VOID:
                raise IRError(f"parameter {pname!r} of {name!r} cannot be void")
            self.param_regs.append(self.new_reg(pty))

    # -- registers -----------------------------------------------------------
    def new_reg(self, ty: ScalarType) -> Reg:
        if ty is ScalarType.VOID:
            raise IRError("cannot allocate a void register")
        r = Reg(self.next_reg, ty)
        self.next_reg += 1
        return r

    @property
    def num_regs(self) -> int:
        return self.next_reg

    # -- blocks ---------------------------------------------------------------
    def add_block(self, label: str) -> Block:
        if label in self.blocks:
            raise IRError(f"duplicate block label {label!r} in {self.name!r}")
        b = Block(label)
        self.blocks[label] = b
        self.block_order.append(label)
        return b

    @property
    def entry(self) -> Block:
        if not self.block_order:
            raise IRError(f"function {self.name!r} has no blocks")
        return self.blocks[self.block_order[0]]

    def iter_blocks(self) -> Iterator[Block]:
        for label in self.block_order:
            yield self.blocks[label]

    def iter_instrs(self) -> Iterator[Instr]:
        for block in self.iter_blocks():
            yield from block.instrs

    def remove_block(self, label: str) -> None:
        if label == self.block_order[0]:
            raise IRError("cannot remove the entry block")
        del self.blocks[label]
        self.block_order.remove(label)

    def called_symbols(self) -> set[str]:
        return {i.callee for i in self.iter_instrs() if i.op is Opcode.CALL}

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.iter_blocks())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Function {self.name} blocks={len(self.blocks)} regs={self.num_regs}>"


@dataclass
class GlobalVar:
    """A module-level global living in device global memory.

    ``init`` is an optional numpy array of ``count`` elements (dtype matching
    ``mty``); zero-initialized when absent.  ``team_local`` is set by the
    globals-to-shared pass (§3.3 mitigation): the machine then gives every
    team its own private copy so ensemble instances cannot race on it.
    """

    name: str
    mty: MemType
    count: int
    init: np.ndarray | None = None
    team_local: bool = False
    constant: bool = False
    scalar: bool = False
    """True for globals declared with ``global_scalar``: the frontend reads
    and writes them by value; arrays (scalar=False) decay to pointers."""

    @property
    def nbytes(self) -> int:
        return self.mty.size * self.count

    def initial_bytes(self) -> bytes:
        if self.init is None:
            return b"\x00" * self.nbytes
        raw = np.ascontiguousarray(self.init).tobytes()
        if len(raw) != self.nbytes:
            raise IRError(
                f"global {self.name!r}: init has {len(raw)} bytes, expected {self.nbytes}"
            )
        return raw


class Module:
    """A linkage unit: functions + globals + the set of host-only symbols.

    ``extern_host`` lists symbols that exist only on the host (``printf``,
    ``fopen``...).  Calls to them are illegal on the device until the RPC
    lowering pass rewrites them into ``rpc`` instructions — exactly the job
    of the custom LTO pass in the paper's toolchain.
    """

    def __init__(self, name: str):
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVar] = {}
        self.extern_host: set[str] = set()
        self.metadata: dict = {}
        #: Lowered kernels by name, shared by every device image of a
        #: finalized executable (see :meth:`repro.gpu.device.GPUDevice.
        #: load_image`).  Run-time artifacts: never pickled.
        self.lowered: dict = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("lowered", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.lowered = {}

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise LinkError(f"duplicate function symbol {fn.name!r}")
        if fn.name in self.globals:
            raise LinkError(f"symbol {fn.name!r} already defined as a global")
        self.functions[fn.name] = fn
        return fn

    def add_global(self, g: GlobalVar) -> GlobalVar:
        if g.name in self.globals:
            raise LinkError(f"duplicate global symbol {g.name!r}")
        if g.name in self.functions:
            raise LinkError(f"symbol {g.name!r} already defined as a function")
        self.globals[g.name] = g
        return g

    def declare_extern_host(self, name: str) -> None:
        self.extern_host.add(name)

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise LinkError(f"undefined function {name!r} in module {self.name!r}") from None

    def get_global(self, name: str) -> GlobalVar:
        try:
            return self.globals[name]
        except KeyError:
            raise LinkError(f"undefined global {name!r} in module {self.name!r}") from None

    def kernels(self) -> list[Function]:
        return [f for f in self.functions.values() if f.is_kernel]

    def rename_function(self, old: str, new: str) -> None:
        """Rename a function and update every direct call site."""
        if old not in self.functions:
            raise LinkError(f"cannot rename undefined function {old!r}")
        if new in self.functions or new in self.globals:
            raise LinkError(f"rename target symbol {new!r} already exists")
        fn = self.functions.pop(old)
        fn.name = new
        self.functions[new] = fn
        for f in self.functions.values():
            for instr in f.iter_instrs():
                if instr.op is Opcode.CALL and instr.callee == old:
                    instr.callee = new

    def undefined_callees(self) -> set[str]:
        """Symbols called somewhere but defined nowhere (host or device)."""
        missing: set[str] = set()
        for f in self.functions.values():
            for callee in f.called_symbols():
                if callee not in self.functions and callee not in self.extern_host:
                    missing.add(callee)
        return missing

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
