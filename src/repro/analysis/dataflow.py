"""Iterative dataflow framework over the register IR, plus the stock
analyses every checker builds on.

The framework is deliberately small: lattice elements are Python
``frozenset``s, a problem is (direction, meet, gen/kill per block), and
:func:`solve` iterates to the fixpoint in reverse postorder (or its
reverse, for backward problems).  On top of it live:

* :func:`liveness` — backward may-analysis over registers,
* :func:`reaching_defs` — forward may-analysis over definition sites,
  including per-register *undefined* pseudo-sites at the entry, which
  makes use-before-def a trivial query,
* :func:`uninitialized_uses` — the query: reads a pseudo-undefined
  definition may reach,
* :func:`par_depths` — forward propagation of the ``par_begin`` /
  ``par_end`` nesting depth, with structural problems reported instead of
  raised (the verifier turns them into :class:`~repro.errors.VerifierError`,
  the lint checkers just consume the depths).

Definition sites are ``(reg, block_label, index)`` tuples; the two pseudo
labels :data:`PARAM_DEF` and :data:`UNDEF` mark parameter registers
(defined at function entry) and the "no definition yet" state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.analysis.cfg import CFG
from repro.ir.instructions import Opcode
from repro.ir.module import Function
from repro.ir.types import Reg

#: Pseudo block label for parameter registers, defined at function entry.
PARAM_DEF = "<param>"
#: Pseudo block label for the "never defined" state of a register.
UNDEF = "<undef>"

#: One definition site: (register, block label, instruction index).
DefSite = tuple[Reg, str, int]


@dataclass
class DataflowResult:
    """Per-block fixpoint of a dataflow problem (entry and exit sets)."""

    block_in: dict[str, frozenset]
    block_out: dict[str, frozenset]


def solve(
    cfg: CFG,
    gen: dict[str, frozenset],
    kill: dict[str, frozenset],
    *,
    forward: bool = True,
    may: bool = True,
    boundary: frozenset = frozenset(),
    universe: frozenset | None = None,
) -> DataflowResult:
    """Solve a gen/kill dataflow problem to its fixpoint.

    ``may=True`` meets with union (initial value: empty set); ``may=False``
    meets with intersection (initial value: ``universe``, which is then
    required).  ``boundary`` seeds the entry block (forward) or the exit
    blocks (backward).
    """
    if not may and universe is None:
        raise ValueError("must-analyses need an explicit universe")
    blocks = cfg.rpo if forward else list(reversed(cfg.rpo))
    edges_in = cfg.preds if forward else cfg.succs
    init = frozenset() if may else universe
    assert init is not None
    state_in: dict[str, frozenset] = {b: init for b in blocks}
    state_out: dict[str, frozenset] = {b: init for b in blocks}
    if forward:
        starts = {cfg.entry}
    else:
        starts = set(cfg.return_blocks | cfg.trap_blocks)
        # A function whose reachable blocks never exit (infinite loop)
        # still needs *some* seed for the backward traversal.
        if not starts:
            starts = {blocks[0]} if blocks else set()

    changed = True
    while changed:
        changed = False
        for b in blocks:
            preds = [p for p in edges_in[b] if p in cfg.reachable]
            if b in starts and not preds:
                acc = boundary
            elif not preds:
                acc = init
            else:
                sets = [state_out[p] for p in preds]
                if b in starts:
                    sets.append(boundary)
                acc = sets[0]
                for s in sets[1:]:
                    acc = acc | s if may else acc & s
            out = gen[b] | (acc - kill[b])
            if acc != state_in[b] or out != state_out[b]:
                state_in[b], state_out[b] = acc, out
                changed = True
    return DataflowResult(block_in=state_in, block_out=state_out)


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------


def liveness(fn: Function, cfg: CFG | None = None) -> DataflowResult:
    """Backward liveness over registers.

    ``block_in[L]`` holds the registers live on entry to block ``L``;
    a register live into the entry block is read before it is ever
    written (modulo parameters).
    """
    cfg = cfg or CFG(fn)
    gen: dict[str, frozenset] = {}
    kill: dict[str, frozenset] = {}
    for label in cfg.rpo:
        used: set[Reg] = set()
        defined: set[Reg] = set()
        for instr in fn.blocks[label].instrs:
            for r in instr.regs_read():
                if r not in defined:
                    used.add(r)
            if instr.dest is not None:
                defined.add(instr.dest)
        gen[label] = frozenset(used)
        kill[label] = frozenset(defined)
    res = solve(cfg, gen, kill, forward=False, may=True)
    # The solver is direction-relative: for a backward problem its "in" is
    # the meet over successors (the block's *exit* set) and its "out" is
    # after gen/kill (the block's *entry* set).  Swap so block_in really
    # is live-in.
    return DataflowResult(block_in=res.block_out, block_out=res.block_in)


# ---------------------------------------------------------------------------
# reaching definitions
# ---------------------------------------------------------------------------


def reaching_defs(fn: Function, cfg: CFG | None = None) -> DataflowResult:
    """Forward reaching definitions over :data:`DefSite` tuples.

    Every register starts with an :data:`UNDEF` pseudo-site (parameters
    with a :data:`PARAM_DEF` site instead), so "may this read see an
    uninitialized register" is simply "does the UNDEF site reach it".
    """
    cfg = cfg or CFG(fn)
    sites_of: dict[Reg, set[DefSite]] = {}

    def _site(reg: Reg, label: str, index: int) -> DefSite:
        s = (reg, label, index)
        sites_of.setdefault(reg, set()).add(s)
        return s

    params = set(fn.param_regs)
    boundary: set[DefSite] = set()
    referenced: set[Reg] = set(params)
    for label in cfg.rpo:
        for instr in fn.blocks[label].instrs:
            referenced.update(instr.regs_read())
            if instr.dest is not None:
                referenced.add(instr.dest)
    for reg in referenced:
        label = PARAM_DEF if reg in params else UNDEF
        boundary.add(_site(reg, label, -1))

    gen: dict[str, frozenset] = {}
    kill: dict[str, frozenset] = {}
    for label in cfg.rpo:
        block_defs: dict[Reg, DefSite] = {}
        for i, instr in enumerate(fn.blocks[label].instrs):
            if instr.dest is not None:
                block_defs[instr.dest] = _site(instr.dest, label, i)
        gen[label] = frozenset(block_defs.values())
        killed: set[DefSite] = set()
        for reg, last in block_defs.items():
            killed.update(s for s in sites_of[reg] if s != last)
        kill[label] = frozenset(killed)
    return solve(cfg, gen, kill, forward=True, may=True, boundary=frozenset(boundary))


@dataclass(frozen=True)
class UninitUse:
    """A register read that an UNDEF pseudo-definition may reach."""

    reg: Reg
    block: str
    index: int


def uninitialized_uses(fn: Function, cfg: CFG | None = None) -> list[UninitUse]:
    """All register reads reachable (on some path) before any definition."""
    cfg = cfg or CFG(fn)
    rd = reaching_defs(fn, cfg)
    uses: list[UninitUse] = []
    for label in cfg.rpo:
        maybe_undef: set[Reg] = {
            reg for reg, def_label, _ in rd.block_in[label] if def_label == UNDEF
        }
        for i, instr in enumerate(fn.blocks[label].instrs):
            for r in instr.regs_read():
                if r in maybe_undef:
                    uses.append(UninitUse(reg=r, block=label, index=i))
            if instr.dest is not None:
                maybe_undef.discard(instr.dest)
    return uses


# ---------------------------------------------------------------------------
# parallel-region depth
# ---------------------------------------------------------------------------


@dataclass
class ParDepthInfo:
    """Parallel-region nesting depth per reachable block, plus any
    structural problems found while propagating it."""

    depth_in: dict[str, int]
    depth_out: dict[str, int]
    problems: list[str]

    def depth_before(self, label: str, index: int, fn: Function) -> int:
        """Depth immediately before instruction ``index`` of block ``label``."""
        d = self.depth_in.get(label, 0)
        for instr in fn.blocks[label].instrs[:index]:
            if instr.op is Opcode.PAR_BEGIN:
                d += 1
            elif instr.op is Opcode.PAR_END:
                d = max(0, d - 1)
        return d


def par_depths(fn: Function, cfg: CFG | None = None) -> ParDepthInfo:
    """Propagate ``par_begin``/``par_end`` nesting depth along every path.

    Unlike a function-wide balance count this is per-path: it catches a
    ``par_end`` that only some predecessors matched, a return inside an
    open region, joins whose incoming depths disagree, and nesting.
    """
    cfg = cfg or CFG(fn)
    depth_in: dict[str, int] = {cfg.entry: 0}
    depth_out: dict[str, int] = {}
    problems: list[str] = []
    worklist = [cfg.entry]
    seen_join_problem: set[str] = set()
    while worklist:
        label = worklist.pop()
        d = depth_in[label]
        block = fn.blocks[label]
        for instr in block.instrs:
            if instr.op is Opcode.PAR_BEGIN:
                if d > 0:
                    problems.append(
                        f"nested par_begin in block {label!r} (depth {d})"
                    )
                d += 1
            elif instr.op is Opcode.PAR_END:
                if d == 0:
                    problems.append(
                        f"par_end without a matching par_begin on a path "
                        f"through block {label!r}"
                    )
                else:
                    d -= 1
        term = block.terminator
        if term is not None and term.op in (Opcode.RET, Opcode.RETVAL) and d != 0:
            problems.append(
                f"unbalanced par_begin/par_end: block {label!r} returns with "
                f"{d} parallel region(s) still open"
            )
        depth_out[label] = d
        for s in cfg.succs[label]:
            if s not in depth_in:
                depth_in[s] = d
                worklist.append(s)
            elif depth_in[s] != d and s not in seen_join_problem:
                seen_join_problem.add(s)
                problems.append(
                    f"unbalanced par_begin/par_end: block {s!r} is entered at "
                    f"parallel depth {depth_in[s]} on one path and {d} on another"
                )
    return ParDepthInfo(depth_in=depth_in, depth_out=depth_out, problems=problems)


# ---------------------------------------------------------------------------
# taint-style register propagation (used by the divergence checkers)
# ---------------------------------------------------------------------------


def propagate_regs(
    fn: Function,
    seed: Callable[[object], Iterable[Reg]],
    propagate: Callable[[object, set[Reg]], Iterable[Reg]],
) -> set[Reg]:
    """Generic register-taint fixpoint over a (non-SSA) function.

    ``seed(instr)`` yields registers tainted by the instruction itself;
    ``propagate(instr, tainted)`` yields registers tainted because of
    already-tainted inputs.  Because home registers are mutable, taint is
    the union over all definitions of a register, so we iterate the whole
    instruction list to a fixpoint.
    """
    tainted: set[Reg] = set()
    changed = True
    while changed:
        changed = False
        for instr in fn.iter_instrs():
            for r in seed(instr):
                if r not in tainted:
                    tainted.add(r)
                    changed = True
            for r in propagate(instr, tainted):
                if r not in tainted:
                    tainted.add(r)
                    changed = True
    return tainted
