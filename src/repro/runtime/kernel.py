"""The entry kernel the host loaders launch.

:func:`build_ensemble_kernel` generates, directly in IR, this paper's
enhanced loader (Figure 4): a ``target teams distribute`` over ``NI``
instances, each iteration executed by one team (or one packed
sub-instance slot), i.e.::

    for (I = slot_id; I < NI; I += num_slots)
        Ret[I] = __user_main(Argc[I], &Argv[I][0]);

It is the only kernel an executable contains.  At NI = 1 in one team it
runs ``Ret[0] = __user_main(Argc[0], Argv[0])`` once, which is the
original main wrapper of [26], so :meth:`Loader.run
<repro.host.loader.Loader.run>` launches it too.

Kernel parameters (bound at launch):

====  =======================================================
 #    meaning
====  =======================================================
 0    NI — number of instances
 1    device address of i64 Argc[NI]
 2    device address of i64 Argv[NI] (each entry a char** address)
 3    device address of i64 Ret[NI]
 4    total instance slots (num_teams * instances per team)
====  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.builder import IRBuilder
from repro.ir.instructions import Opcode
from repro.ir.module import Function, Module
from repro.ir.types import I64, MemType, ScalarType
from repro.passes.rename_main import USER_MAIN

ENSEMBLE_KERNEL = "__ensemble_entry"
#: The retired prior-work wrapper (see :func:`build_single_kernel`).
SINGLE_KERNEL = "__single_entry"


@dataclass(frozen=True)
class KernelSpec:
    """Launch-facing description of a built kernel."""

    name: str
    num_params: int
    doc: str


def build_single_kernel(module: Module) -> KernelSpec:
    """Add the prior-work single-instance wrapper kernel to ``module``.

    Nothing in ``repro`` builds or launches this kernel any more: kept
    only because ``perfbench/workloads.py`` imports it, and to be deleted
    with that import when the benchmark is next redefined.
    """
    fn = Function(SINGLE_KERNEL, [], ScalarType.VOID, is_kernel=True)
    b = IRBuilder(fn)
    b.set_block(fn.add_block("entry"))
    argc_arr = b.kparam(1)
    argv_arr = b.kparam(2)
    ret_arr = b.kparam(3)
    argc = b.load(argc_arr, MemType.I64)
    argv = b.load(argv_arr, MemType.I64)
    ret = b.call(USER_MAIN, [argc, argv], I64)
    b.store(ret_arr, ret, MemType.I64)
    b.ret()
    module.add_function(fn)
    return KernelSpec(SINGLE_KERNEL, 4, "single-instance main wrapper")


def build_ensemble_kernel(module: Module) -> KernelSpec:
    """Add the ensemble ``teams distribute`` kernel to ``module``."""
    fn = Function(ENSEMBLE_KERNEL, [], ScalarType.VOID, is_kernel=True)
    b = IRBuilder(fn)
    entry = fn.add_block("entry")
    cond = fn.add_block("dist.cond")
    body = fn.add_block("dist.body")
    done = fn.add_block("dist.end")

    b.set_block(entry)
    ni = b.kparam(0)
    argc_arr = b.kparam(1)
    argv_arr = b.kparam(2)
    ret_arr = b.kparam(3)
    # slot id and slot count: with M instances packed per team these are
    # team*M+sub and num_teams*M; with M == 1 they reduce to ctaid/nctaid.
    slot = b.instance()
    i_var = fn.new_reg(I64)
    b.mov_to(i_var, slot)
    # total slots = num_teams * instances_per_team; INSTANCE enumerates
    # globally, so slots = (max instance id + 1); the launcher passes it:
    nslots = b.kparam(4)
    b.br(cond)

    b.set_block(cond)
    in_range = b.binop(Opcode.ICMP_SLT, i_var, ni)
    b.cbr(in_range, body, done)

    b.set_block(body)
    eight = b.const_i(8)
    off = b.binop(Opcode.MUL, i_var, eight)
    argc = b.load(b.binop(Opcode.ADD, argc_arr, off), MemType.I64)
    argv = b.load(b.binop(Opcode.ADD, argv_arr, off), MemType.I64)
    ret = b.call(USER_MAIN, [argc, argv], I64)
    b.store(b.binop(Opcode.ADD, ret_arr, off), ret, MemType.I64)
    b.mov_to(i_var, b.binop(Opcode.ADD, i_var, nslots))
    b.br(cond)

    b.set_block(done)
    b.ret()
    module.add_function(fn)
    return KernelSpec(ENSEMBLE_KERNEL, 5, "ensemble teams-distribute wrapper")
