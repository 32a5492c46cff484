"""Property tests for the dataflow framework on random CFGs.

Hypothesis generates random control-flow graphs (random edges over N
blocks, random per-block register defs/uses) and asserts the textbook
invariants the rest of the analysis subsystem leans on:

* the entry block dominates every reachable block, and every reachable
  block post-dominates itself;
* dominance is consistent with reachability: removing a dominator from
  the graph disconnects its dominatee from the entry;
* a register is live into the entry block iff the use-before-def analysis
  reports a read of it (the two analyses answer the same question through
  different lattices);
* every natural loop lives in reachable code: each body block is
  reachable and dominated by the loop header;
* dataflow results are deterministic across recomputation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CFG,
    dominators,
    liveness,
    natural_loops,
    postdominators,
)
from repro.analysis.dataflow import uninitialized_uses
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Instr, Opcode
from repro.ir.module import Function
from repro.ir.types import I64

NUM_REGS = 6

# One block: (defs, uses, n_successors) — successor targets are picked
# from a separate list so the graph shape and block bodies shrink
# independently.
block_strategy = st.tuples(
    st.lists(st.integers(0, NUM_REGS - 1), max_size=3),  # regs defined
    st.lists(st.integers(0, NUM_REGS - 1), max_size=3),  # regs used
)

cfg_strategy = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(block_strategy, min_size=n, max_size=n),
        st.lists(  # up to two successor indices per block
            st.lists(st.integers(0, n - 1), min_size=0, max_size=2),
            min_size=n,
            max_size=n,
        ),
    )
)


def build_function(spec) -> Function:
    """Materialize a random CFG spec as a verifiable-ish IR function."""
    n, bodies, succs = spec
    fn = Function("prop")
    regs = [fn.new_reg(I64) for _ in range(NUM_REGS)]
    blocks = [fn.add_block(f"b{i}") for i in range(n)]
    for i, ((defs, uses), targets) in enumerate(zip(bodies, succs)):
        b = IRBuilder(fn)
        b.set_block(blocks[i])
        for r in uses:
            # read regs[r]: mov into a scratch register
            b.emit(Instr(Opcode.MOV, fn.new_reg(I64), (regs[r],)))
        for r in defs:
            b.emit(Instr(Opcode.MOVI, regs[r], imm=r))
        targets = [t for t in targets if t != i] or []
        if len(targets) >= 2:
            cond = b.const_i(1)
            b.cbr(cond, blocks[targets[0]], blocks[targets[1]])
        elif len(targets) == 1:
            b.br(blocks[targets[0]])
        else:
            b.ret()
    return fn


@given(cfg_strategy)
@settings(max_examples=60, deadline=None)
def test_entry_dominates_all_reachable(spec):
    fn = build_function(spec)
    cfg = CFG(fn)
    dom = dominators(cfg)
    for label in cfg.reachable:
        assert cfg.entry in dom[label]
        assert label in dom[label]  # reflexive


@given(cfg_strategy)
@settings(max_examples=60, deadline=None)
def test_postdominance_reflexive_and_exit_selfonly(spec):
    fn = build_function(spec)
    cfg = CFG(fn)
    pdom = postdominators(cfg)
    for label in cfg.reachable:
        assert label in pdom[label]
    for label in cfg.return_blocks:
        assert pdom[label] == {label}


@given(cfg_strategy)
@settings(max_examples=60, deadline=None)
def test_dominator_blocks_all_entry_paths(spec):
    """Graph-theoretic cross-check: if D (≠ B) dominates B, deleting D
    makes B unreachable from the entry."""
    fn = build_function(spec)
    cfg = CFG(fn)
    dom = dominators(cfg)
    for b_label in cfg.reachable:
        for d_label in dom[b_label]:
            if d_label == b_label:
                continue
            # BFS from entry avoiding d_label must not reach b_label
            seen = {cfg.entry} if cfg.entry != d_label else set()
            stack = list(seen)
            while stack:
                cur = stack.pop()
                for s in cfg.succs[cur]:
                    if s != d_label and s not in seen:
                        seen.add(s)
                        stack.append(s)
            assert b_label not in seen


@given(cfg_strategy)
@settings(max_examples=60, deadline=None)
def test_natural_loops_are_reachable_and_header_dominated(spec):
    fn = build_function(spec)
    cfg = CFG(fn)
    dom = dominators(cfg)
    for loop in natural_loops(fn):
        for label in loop.body:
            assert label in cfg.reachable
            assert loop.header in dom[label]


@given(cfg_strategy)
@settings(max_examples=60, deadline=None)
def test_live_into_entry_iff_use_before_def(spec):
    """Liveness and reaching-definitions agree on uninitialized reads:
    a register live into the entry block is exactly one whose read an
    UNDEF pseudo-definition may reach."""
    fn = build_function(spec)
    cfg = CFG(fn)
    live_in_entry = {
        r for r in liveness(fn, cfg).block_in[cfg.entry]
    }
    flagged = {u.reg for u in uninitialized_uses(fn, cfg)}
    assert live_in_entry == flagged


@given(cfg_strategy)
@settings(max_examples=30, deadline=None)
def test_analyses_deterministic(spec):
    fn = build_function(spec)
    cfg1, cfg2 = CFG(fn), CFG(fn)
    assert cfg1.rpo == cfg2.rpo
    assert dominators(cfg1) == dominators(cfg2)
    assert liveness(fn, cfg1).block_in == liveness(fn, cfg2).block_in
