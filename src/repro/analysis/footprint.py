"""Static per-instance resource estimation for ensemble packing.

The paper packs instances onto a device until the device heap says no —
an *O(log N)* OOM-bisection discovers the feasible batch size at runtime
(§4.3's Page-Rank cap; :class:`~repro.sched.Scheduler` bisects on OOM).
This module moves that discovery to compile time where the program allows it:
bound every device-heap allocation ``__user_main`` can reach, multiply by
a bound on how often each allocation site executes, and the sum is a
per-instance heap footprint the scheduler can divide into the device heap
*before* the first doomed launch.

The three interprocedural analyses each contribute one factor:

* the **call graph** restricts attention to functions reachable from the
  entry point and yields per-function *invocation bounds* (how many times
  a function can run per instance — recursion degrades to unbounded);
* **counted-loop matching + value ranges** turn "a ``malloc`` inside a
  loop" into "at most *k* executions" (:func:`~repro.analysis.ranges.trip_bound`);
* **value ranges** again bound the byte size each execution requests.

Any unknown — an unbounded loop, a recursive caller, a size the range
analysis cannot close — makes the footprint *unbounded* (``heap_hi is
None``), and callers fall back to runtime bisection exactly as before.
A bounded footprint is a sound over-approximation: allocation sizes are
rounded up to the bump allocator's :data:`~repro.runtime.libc.HEAP_ALIGN`
just like the device ``malloc`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.cfg import CFG
from repro.analysis.dominators import dominators
from repro.analysis.loops import (
    Loop,
    enclosing_loops,
    match_counted_loop,
    natural_loops,
)
from repro.analysis.ranges import Interval, ValueRanges, trip_bound
from repro.ir.instructions import Opcode
from repro.ir.module import Function, Module
from repro.ir.types import Reg
from repro.runtime.libc import HEAP_ALIGN

#: Allocator entry points and the byte width of one element each requests.
#: ``malloc`` takes raw bytes; the typed wrappers take element counts.
ALLOCATORS: dict[str, int] = {
    "malloc": 1,
    "calloc": 1,
    "malloc_i64": 8,
    "malloc_f64": 8,
}

#: Default entry point: the renamed user ``main`` every kernel iterates.
DEFAULT_ENTRY = "__user_main"


def _align(nbytes: int) -> int:
    return -(-nbytes // HEAP_ALIGN) * HEAP_ALIGN


@dataclass(frozen=True)
class AllocSite:
    """One reachable allocator call and its static bounds."""

    function: str
    block: str
    index: int
    callee: str
    #: bytes requested per execution (element count already scaled).
    size: Interval
    #: executions per instance; ``hi is None`` = unbounded.
    count: Interval

    @property
    def total_hi(self) -> int | None:
        """Aligned worst-case bytes this site contributes per instance."""
        if self.size.hi is None or self.count.hi is None:
            return None
        return _align(max(self.size.hi, 1)) * max(self.count.hi, 0)

    @property
    def total_lo(self) -> int:
        """Aligned bytes this site is guaranteed to consume per instance."""
        lo = self.count.lo or 0
        if lo <= 0:
            return 0
        # malloc traps on non-positive sizes, so a site that executes
        # requests at least one byte (one aligned chunk).
        return _align(max(self.size.lo or 1, 1)) * lo

    def describe(self) -> str:
        size = self.size.render() if hasattr(self.size, "render") else str(self.size)
        count = self.count.render() if hasattr(self.count, "render") else str(self.count)
        return (
            f"{self.function}:{self.block}[{self.index}] {self.callee} "
            f"size={size} count={count}"
        )


@dataclass(frozen=True)
class StaticFootprint:
    """Per-instance resource bounds of a linked module.

    ``heap_hi is None`` means the analysis could not bound the heap —
    callers must fall back to runtime OOM bisection.
    """

    entry: str
    #: guaranteed device-heap bytes per instance (aligned lower bound).
    heap_lo: int
    #: worst-case device-heap bytes per instance, or None if unbounded.
    heap_hi: int | None
    #: bytes of module globals (shared by all instances, not per-instance).
    globals_bytes: int
    sites: tuple[AllocSite, ...]

    @property
    def bounded(self) -> bool:
        return self.heap_hi is not None

    def max_instances(self, heap_bytes: int) -> int | None:
        """How many instances statically fit in ``heap_bytes`` of heap.

        ``None`` means *no static constraint*: either the footprint is
        unbounded (fall back to bisection) or the program provably never
        allocates.  ``0`` means even a single instance cannot fit.
        """
        if self.heap_hi is None or self.heap_hi == 0:
            return None
        return heap_bytes // self.heap_hi

    def describe(self) -> str:
        hi = "unbounded" if self.heap_hi is None else f"{self.heap_hi} B"
        lines = [
            f"entry {self.entry}: heap per instance in "
            f"[{self.heap_lo} B, {hi}]; globals {self.globals_bytes} B",
        ]
        lines += [f"  {s.describe()}" for s in self.sites]
        return "\n".join(lines)


def _site_count(
    vr: ValueRanges,
    fn: Function,
    label: str,
    loops_of: dict[str, list[Loop]],
    counted_cache: dict[str, int | None],
    dom: dict[str, frozenset[str]],
    exits: frozenset[str],
) -> Interval:
    """Bound how often one instruction in ``label`` executes per call of
    ``fn``: the product of the trip bounds of every enclosing loop."""
    hi: int | None = 1
    for loop in loops_of.get(label, []):
        if loop.header not in counted_cache:
            counted = match_counted_loop(fn, loop)
            counted_cache[loop.header] = (
                None if counted is None else trip_bound(vr, fn.name, counted)
            )
        trips = counted_cache[loop.header]
        if trips is None:
            hi = None
            break
        hi = hi * trips
    # Lower bound: 1 only for straight-line sites on every path to exit.
    lo = 0
    if not loops_of.get(label) and exits and all(label in dom[e] for e in exits):
        lo = 1
    return Interval(lo, hi)


def compute_footprint(
    module: Module,
    *,
    entry: str = DEFAULT_ENTRY,
    callgraph: CallGraph | None = None,
    ranges: ValueRanges | None = None,
) -> StaticFootprint:
    """Bound the per-instance device-heap footprint of ``entry``."""
    globals_bytes = sum(g.nbytes for g in module.globals.values())
    if entry not in module.functions:
        return StaticFootprint(entry, 0, None, globals_bytes, ())
    cg = callgraph or build_callgraph(module)
    vr = ranges or ValueRanges(module, cg)
    reachable = cg.reachable_from([entry])

    # Per-function structural facts, computed once.
    loops_of: dict[str, dict[str, list[Loop]]] = {}
    counted: dict[str, dict[str, int | None]] = {}
    doms: dict[str, dict[str, frozenset[str]]] = {}
    exits: dict[str, frozenset[str]] = {}
    for name in reachable:
        if name not in module.functions or name in ALLOCATORS:
            continue
        fn = module.functions[name]
        lps = natural_loops(fn)
        loops_of[name] = enclosing_loops(fn, lps)
        counted[name] = {}
        cfg = CFG(fn)
        doms[name] = dominators(cfg)
        exits[name] = cfg.return_blocks

    def local_count(name: str, label: str) -> Interval:
        fn = module.functions[name]
        return _site_count(
            vr, fn, label, loops_of[name], counted[name], doms[name], exits[name]
        )

    # Invocation bounds per function: callers-first over the call graph.
    # ``entry`` runs once per instance; a callee's bound is the sum over
    # its reachable call sites of caller_bound x site execution bound.
    # Recursion (non-trivial SCC) and indirect calls degrade to unbounded.
    inv: dict[str, Interval] = {entry: Interval.const(1)}
    for name in cg.topo_order(callees_first=False):
        if name not in reachable or name not in loops_of:
            continue
        caller_inv = inv.get(name)
        if caller_inv is None:
            continue
        for site in cg.sites_in(name):
            callee = site.callee
            if callee is None or callee not in module.functions:
                continue
            mult = local_count(name, site.block)
            if caller_inv.hi is None or mult.hi is None:
                contrib = Interval(0, None)
            else:
                contrib = Interval(0, caller_inv.hi * mult.hi)
            prev = inv.get(callee)
            if prev is None:
                inv[callee] = contrib
            else:
                hi = (
                    None
                    if prev.hi is None or contrib.hi is None
                    else prev.hi + contrib.hi
                )
                inv[callee] = Interval(min(prev.lo or 0, contrib.lo or 0), hi)
        if cg.is_recursive(name):
            inv[name] = Interval(0, None)

    sites: list[AllocSite] = []
    for name in sorted(reachable):
        if name not in loops_of:  # allocators themselves, externs
            continue
        fn = module.functions[name]
        fn_inv = inv.get(name, Interval(0, None))
        if cg.is_recursive(name):
            fn_inv = Interval(0, None)
        for block in fn.iter_blocks():
            for idx, instr in enumerate(block.instrs):
                if instr.op is not Opcode.CALL or instr.callee not in ALLOCATORS:
                    continue
                elem = ALLOCATORS[instr.callee]
                arg = instr.args[0] if instr.args else None
                if isinstance(arg, Reg):
                    req = vr.interval_at(name, block.label, idx, arg)
                elif isinstance(arg, int):
                    req = Interval.const(arg)
                else:
                    req = Interval(None, None)
                size = req.mul(Interval.const(elem)) if elem != 1 else req
                here = local_count(name, block.label)
                if fn_inv.hi is None or here.hi is None:
                    count = Interval(0, None)
                else:
                    count = Interval(
                        (fn_inv.lo or 0) * (here.lo or 0), fn_inv.hi * here.hi
                    )
                sites.append(
                    AllocSite(
                        function=name,
                        block=block.label,
                        index=idx,
                        callee=instr.callee,
                        size=size,
                        count=count,
                    )
                )

    heap_lo = sum(s.total_lo for s in sites)
    heap_hi: int | None = 0
    for s in sites:
        t = s.total_hi
        if t is None:
            heap_hi = None
            break
        heap_hi += t
    return StaticFootprint(
        entry=entry,
        heap_lo=heap_lo,
        heap_hi=heap_hi,
        globals_bytes=globals_bytes,
        sites=tuple(sites),
    )


__all__ = [
    "ALLOCATORS",
    "AllocSite",
    "StaticFootprint",
    "compute_footprint",
]
