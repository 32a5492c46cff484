"""Static safety certificates for lowered kernels.

An abstract interpretation over the lowered register machine
(:class:`~repro.runtime.machine.LoweredKernel`) that tries to discharge,
per memory/trap site, the checks the execution backends otherwise perform
dynamically:

* **null**: the effective address never lands in the guard page
  (``addr >= NULL_GUARD``);
* **align**: the address is a multiple of the element size;
* **bounds**: the access stays inside its allocation's static extent
  (heap blocks via the device ``malloc`` contract, globals via their
  declared size, stack blocks via the rounded ``salloc`` size, and the
  launcher's argc/argv/ret marshalling tables);
* **trap**: ``SDIV``/``SREM`` divisors are provably non-zero and
  ``FPTOSI`` operands provably finite.

The result is a :class:`SafetyCertificate` per kernel: one
:class:`SiteProof` per site with a PROVEN / UNPROVEN / DISPROVEN verdict
per check plus a witness string.  The compiled backend consults the
certificate to emit guard-free straight-line code for proven sites
(``docs/safety.md``); DISPROVEN sites surface as ``static-oob`` /
``static-trap`` lint findings and refuse to launch without
``allow_unsafe``.

Abstract domain
---------------
Integer registers hold linear expressions ``const + sum(coeff * origin)``
over *origins* — stable symbolic unknowns keyed by defining pc (loads,
``salloc``, heap ``atomic_add``), by parameter index, by global symbol,
by lane-identity opcode, or by ``(leader, reg)`` for join merges.  Each
origin carries an interval, a value alignment, and (for allocation
origins) a *space* tag with a symbolic extent.  Branch edges refine the
state with linear *facts* (``form -> interval``) consulted by a
depth-bounded linear-combination evaluator, which is what proves e.g.
``8*i + 8 <= 8*n`` from the loop guard ``i < n``.

Soundness notes (why stable per-pc origins are sound): any value that
survives a loop back edge passes the loop-header join, where differing
incoming expressions collapse into a fresh merge origin, so a register
can only claim equality with a per-pc origin inside the single iteration
that defined it.  Facts and comparisons mentioning an origin are killed
when its defining pc re-executes, and every fact mentioning a leader's
merge origins is killed at that leader's join.

What a state carries: only what can change.  A register not live at pc
0 whose one definition writes the same atom whatever the state (``MOVI
k``, a global's address, a launch parameter, a lane identity) holds that
atom wherever it is read: a path from pc 0 to a read that skipped the
definition would make the register live at pc 0, so the definition
dominates every read.  Such registers sit in one per-analyzer table,
never in a state; one read on a path that skips its definition stays in
the states.  A join drops the comparison records of registers dead
there: each is redefined, which drops its record, before it is read.

Trusted platform contracts (documented in ``docs/safety.md``):

* ``DeviceAllocator`` returns 256-aligned addresses ``>= NULL_GUARD``;
* the device ``malloc`` bumps ``__heap_cursor`` by a 256-rounded size and
  traps on exhaustion, so on the non-trapping path the fetched cursor is
  a 256-aligned in-heap block of the requested extent;
* ``salloc`` rounds to 8 bytes and traps on stack overflow (the device
  rounds ``stack_bytes`` to a multiple of 8);
* the loader marshals ``Argc[NI] | ArgvPtr[NI] | Ret[NI]`` tables from a
  256-aligned base, argv vectors are NULL-terminated (``argc + 1``
  slots), and every marshalled string pointer is non-null.
"""

from __future__ import annotations

import enum
import hashlib
import math
import operator
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.ranges import _LIMIT, TOP, Interval
from repro.gpu.memory import NULL_GUARD
from repro.ir.instructions import Opcode

#: Bump on any change to the abstract domain, the contracts, or the
#: verdict semantics: the compile cache folds this into its pipeline
#: fingerprint, so stale certificates become structurally unreachable.
ANALYZER_VERSION = 2

#: Module metadata key under which certificates are stamped
#: (``dict[kernel_name, SafetyCertificate]``).
SAFETY_META = "safety"

_MEM_KINDS = ("load", "store", "atomic")
_TRAP_KINDS = ("sdiv", "srem", "fptosi")


class Verdict(enum.IntEnum):
    """Per-check outcome of the safety analysis."""

    DISPROVEN = 0  # statically proven to violate the check
    UNPROVEN = 1  # could not be decided either way
    PROVEN = 2  # statically proven safe


@dataclass(frozen=True)
class SiteProof:
    """Verdicts for one memory or trap site (keyed by lowered pc)."""

    pc: int
    kind: str  # "load" | "store" | "atomic" | "sdiv" | "srem" | "fptosi"
    size: int  # element size for memory sites, 0 for trap sites
    null: Verdict = Verdict.UNPROVEN
    align: Verdict = Verdict.UNPROVEN
    bounds: Verdict = Verdict.UNPROVEN
    trap: Verdict = Verdict.UNPROVEN
    witness: str = ""
    loc: tuple | None = None

    @property
    def is_mem(self) -> bool:
        return self.kind in _MEM_KINDS

    @property
    def verdict(self) -> Verdict:
        """Overall verdict: DISPROVEN if any check fails statically;
        PROVEN when the dynamic guard can be elided; else UNPROVEN."""
        if not self.is_mem:
            return self.trap
        if Verdict.DISPROVEN in (self.null, self.align, self.bounds):
            return Verdict.DISPROVEN
        return min(self.null, self.align)  # PROVEN when both are

    @property
    def guard_free(self) -> bool:
        """The null/alignment pre-check may be elided."""
        return self.is_mem and self.verdict is Verdict.PROVEN

    @property
    def index_free(self) -> bool:
        """Additionally in-bounds: the end-of-memory check may be elided."""
        return self.guard_free and self.bounds is Verdict.PROVEN

    def to_dict(self) -> dict:
        d = {
            "pc": self.pc,
            "kind": self.kind,
            "verdict": self.verdict.name,
            "witness": self.witness,
        }
        if self.is_mem:
            d["size"] = self.size
            d["null"] = self.null.name
            d["align"] = self.align.name
            d["bounds"] = self.bounds.name
        else:
            d["trap"] = self.trap.name
        if self.loc is not None:
            d["loc"] = list(self.loc)
        return d


@dataclass
class SafetyCertificate:
    """Per-kernel safety proof: one :class:`SiteProof` per site."""

    kernel: str
    analyzer_version: int = ANALYZER_VERSION
    sites: dict[int, SiteProof] = field(default_factory=dict)

    def mem_sites(self) -> list[SiteProof]:
        return [p for p in self.sites.values() if p.is_mem]

    def trap_sites(self) -> list[SiteProof]:
        return [p for p in self.sites.values() if not p.is_mem]

    def disproven(self) -> list[SiteProof]:
        return [
            p
            for p in sorted(self.sites.values(), key=lambda p: p.pc)
            if p.verdict is Verdict.DISPROVEN
        ]

    def counts(self) -> dict[str, int]:
        c = {"proven": 0, "unproven": 0, "disproven": 0}
        for p in self.sites.values():
            c[p.verdict.name.lower()] += 1
        return c

    def summary(self) -> dict:
        mem = self.mem_sites()
        guard_free = sum(1 for p in mem if p.guard_free)
        index_free = sum(1 for p in mem if p.index_free)
        out = {
            "kernel": self.kernel,
            "analyzer_version": self.analyzer_version,
            "sites": len(self.sites),
            "mem_sites": len(mem),
            "trap_sites": len(self.sites) - len(mem),
            "guard_free": guard_free,
            "index_free": index_free,
            "coverage": (guard_free / len(mem)) if mem else 1.0,
        }
        out.update(self.counts())
        return out

    def to_dict(self) -> dict:
        d = self.summary()
        d["site_proofs"] = [
            self.sites[pc].to_dict() for pc in sorted(self.sites)
        ]
        return d


# ---------------------------------------------------------------------------
# linear expressions over origins
# ---------------------------------------------------------------------------


class _Expr:
    """``const + sum(coeff * origin)`` with integer coefficients.

    Immutable once built: every operation returns a fresh expression, so
    the merge-origin flag is computed at most once per object."""

    __slots__ = ("const", "terms", "_merge")

    def __init__(self, const: int = 0, terms: dict | None = None):
        self.const = const
        self.terms = terms or {}
        self._merge = None

    @staticmethod
    def of(key) -> "_Expr":
        return _Expr(0, {key: 1})

    def add_const(self, c: int) -> "_Expr":
        return self if not c else _Expr(self.const + c, dict(self.terms))

    def add(self, other: "_Expr") -> "_Expr":
        terms = dict(self.terms)
        for k, c in other.terms.items():
            n = terms.get(k, 0) + c
            if n:
                terms[k] = n
            else:
                terms.pop(k, None)
        return _Expr(self.const + other.const, terms)

    def sub(self, other: "_Expr") -> "_Expr":
        return self.add(other.scale(-1))

    def scale(self, k: int) -> "_Expr":
        if k == 0:
            return _Expr(0)
        return _Expr(self.const * k, {o: c * k for o, c in self.terms.items()})

    def drop(self, key) -> "_Expr":
        terms = dict(self.terms)
        terms.pop(key, None)
        return _Expr(self.const, terms)

    @property
    def is_const(self) -> bool:
        return not self.terms

    @property
    def has_merge(self) -> bool:
        """Mentions some join's merge origin (phi normalization only ever
        rewrites those)."""
        m = self._merge
        if m is None:
            m = self._merge = any(k[0] == "m" for k in self.terms)
        return m

    def form(self, rkeys: "_ReprKeys") -> tuple:
        """Canonical terms-only key (const stripped), ordered by the
        ``repr`` of each origin key."""
        if len(self.terms) < 2:
            return tuple(self.terms.items())
        return tuple(sorted(self.terms.items(), key=lambda kv: rkeys[kv[0]]))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, _Expr)
            and self.const == other.const
            and self.terms == other.terms
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{c}*{o}" for o, c in self.terms.items()]
        parts.append(str(self.const))
        return " + ".join(parts)


class _ReprKeys(dict):
    """Memoized ``repr`` of origin keys, the sort key of canonical forms
    (one table per analyzer run)."""

    def __missing__(self, key) -> str:
        r = self[key] = repr(key)
        return r


_ZERO = _Expr(0)
_UNK_F = (None, None)  # unknown float range


def _fneg(r: tuple) -> tuple:
    return (None if r[1] is None else -r[1], None if r[0] is None else -r[0])


def _fzip(f, a: tuple, b: tuple) -> tuple:
    """Float ranges combined end by end; an unbounded end stays so."""
    return tuple(None if x is None or y is None else f(x, y) for x, y in zip(a, b))


@dataclass
class _Origin:
    """One symbolic unknown: interval, value alignment, allocation tag."""

    name: str
    iv: Interval
    align: int = 1
    space: tuple | None = None  # allocation tag for bounds proofs
    extent: _Expr | None = None  # symbolic byte size of the allocation
    argc_link: object = None  # argc origin key for argv vectors


def _iscale(iv: Interval, k: int) -> Interval:
    if k == 0:
        return Interval.const(0)
    if k > 0:
        return Interval.of(
            None if iv.lo is None else iv.lo * k,
            None if iv.hi is None else iv.hi * k,
        )
    return Interval.of(
        None if iv.hi is None else iv.hi * k,
        None if iv.lo is None else iv.lo * k,
    )


def _meet(a: Interval, b: Interval) -> Interval:
    lo = a.lo if b.lo is None else (b.lo if a.lo is None else max(a.lo, b.lo))
    hi = a.hi if b.hi is None else (b.hi if a.hi is None else min(a.hi, b.hi))
    return Interval(lo, hi)


class _State:
    """Abstract machine state at one program point."""

    __slots__ = ("ir", "fr", "facts", "neqz", "cmp")

    def __init__(self, ir=None, fr=None, facts=None, neqz=None, cmp=None):
        self.ir: dict = ir if ir is not None else {}
        self.fr: dict = fr if fr is not None else {}
        self.facts: dict = facts if facts is not None else {}
        self.neqz: set = neqz if neqz is not None else set()
        self.cmp: dict = cmp if cmp is not None else {}

    def copy(self) -> "_State":
        return _State(
            dict(self.ir),
            dict(self.fr),
            dict(self.facts),
            set(self.neqz),
            dict(self.cmp),
        )

    def same(self, other: "_State") -> bool:
        return (
            self.ir == other.ir
            and self.fr == other.fr
            and self.facts == other.facts
            and self.neqz == other.neqz
            and self.cmp == other.cmp
        )


def _mentions(form: tuple, key) -> bool:
    return any(k == key for k, _ in form)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _is_origin(e: _Expr, key) -> bool:
    """``e`` is exactly the origin ``key``."""
    return not e.const and len(e.terms) == 1 and e.terms.get(key) == 1


def _mentions_leader(e: _Expr, leader: int) -> bool:
    """``e`` mentions a merge origin of ``leader``'s join."""
    return e.has_merge and _form_mentions_leader(e.terms.items(), leader)


def _form_mentions_leader(form, leader: int) -> bool:
    return any(k[0] == "m" and k[1] == leader for k, _ in form)


# ---------------------------------------------------------------------------
# the analyzer
# ---------------------------------------------------------------------------

#: where ``lhs - rhs`` lies on the taken and the other edge of a branch
#: on ``lhs op rhs``
_ORDER_EDGES = {
    Opcode.ICMP_SLT: (Interval(None, -1), Interval(0, None)),
    Opcode.ICMP_SLE: (Interval(None, 0), Interval(1, None)),
    Opcode.ICMP_SGT: (Interval(1, None), Interval(None, 0)),
    Opcode.ICMP_SGE: (Interval(0, None), Interval(None, -1)),
}

_CMP_OPS = frozenset(_ORDER_EDGES) | {Opcode.ICMP_EQ, Opcode.ICMP_NE}

#: ops whose result is one atom whatever the state (``_fixed_values``)
_ATOM_OPS = frozenset(
    {
        Opcode.MOVI,
        Opcode.GADDR,
        Opcode.KPARAM,
        Opcode.TID,
        Opcode.CTAID,
        Opcode.LANEID,
        Opcode.INSTANCE,
        Opcode.NTID,
        Opcode.NCTAID,
    }
)

_TERMINATORS = frozenset(
    {Opcode.BR, Opcode.CBR, Opcode.RET, Opcode.RETVAL, Opcode.TRAP}
)

#: fixpoint bail-out: beyond this many full RPO sweeps the analyzer gives
#: up and reports every site UNPROVEN (sound, just unhelpful).
_MAX_SWEEPS = 48


class _KernelAnalyzer:
    def __init__(self, kern, *, globals_info: dict, wrapper: bool):
        self.kern = kern
        self.code = kern.code
        self.globals_info = globals_info
        self.wrapper = wrapper
        self.origins: dict = {}
        self.states: dict[int, _State] = {}
        self.visits: dict[int, int] = {}  # pairwise joins per leader
        self.sweeps = 0
        self._argc_at: dict = {}  # delta (form, const) -> argc origin key
        #: what each merge origin currently denotes: a concrete expr if
        #: the last join there collapsed the phi, absent if it is a real
        #: merge.  Incoming edge exprs are normalized through this table
        #: so one-sweep-stale echoes of a phi key resolve to its current
        #: identity instead of ping-ponging between nested headers.
        self.phi_val: dict = {}
        self._rkeys = _ReprKeys()
        self._atoms: dict = {}
        self._dirty = False
        self._leaders = self._find_leaders()
        self._rpo_index = {pc: i for i, pc in enumerate(self._leaders)}
        #: registers fixed at their one definition (soundness notes):
        #: read from here, never carried in a state
        self._fixed: dict[int, _Expr] = {}
        self._live_iregs: dict[int, list[int]] = {}
        self._live_imask: dict[int, int] = {}
        self._live_fregs: dict[int, list[int]] = {}
        self._liveness()
        self._phi_regs: dict[int, int] = {}  # leader -> bitmask of phi regs

    # -- cfg ------------------------------------------------------------
    def _find_leaders(self) -> list[int]:
        leaders = {0}
        for pc, li in enumerate(self.code):
            if li.op in (Opcode.BR, Opcode.CBR):
                leaders.update(li.targets)
                leaders.add(pc + 1)
            elif li.op in (Opcode.RET, Opcode.RETVAL, Opcode.TRAP):
                leaders.add(pc + 1)
        return sorted(pc for pc in leaders if pc < len(self.code))

    def _range_end(self, leader: int) -> int:
        i = self._rpo_index[leader]
        if i + 1 < len(self._leaders):
            return self._leaders[i + 1]
        return len(self.code)

    def _liveness(self) -> None:
        """Per-block live-in registers (one bitmask per bank), less the
        fixed-value registers.

        Joins only fold registers live at the join.  Wrapper kernels
        write hundreds of registers, and on average 84-107 integer ones
        are live into each block of a Figure-6 ``__ensemble_entry``
        (-O1), mostly constants and global addresses LICM hoisted to the
        top of the inlined ``main``.  Those go to the fixed table, which
        leaves 17-18 per block.
        """
        n = len(self._leaders)
        succs: list[list[int]] = []
        iuse = [0] * n
        idef = [0] * n
        fuse = [0] * n
        fdef = [0] * n
        for bi, leader in enumerate(self._leaders):
            end = self._range_end(leader)
            term = None
            for pc in range(leader, end):
                li = self.code[pc]
                for isf, idx in li.args:
                    bit = 1 << idx
                    if isf:
                        if not fdef[bi] & bit:
                            fuse[bi] |= bit
                    elif not idef[bi] & bit:
                        iuse[bi] |= bit
                if li.dest >= 0:
                    if li.dest_f:
                        fdef[bi] |= 1 << li.dest
                    else:
                        idef[bi] |= 1 << li.dest
                if li.op in _TERMINATORS:
                    term = li
                    break
            if term is None:
                succs.append([end] if end < len(self.code) else [])
            elif term.op is Opcode.BR:
                succs.append([term.targets[0]])
            elif term.op is Opcode.CBR:
                succs.append(list(term.targets))
            else:
                succs.append([])  # RET / RETVAL / TRAP
        live_i = [0] * n
        live_f = [0] * n
        idx_of = self._rpo_index
        changed = True
        while changed:
            changed = False
            for bi in range(n - 1, -1, -1):
                out_i = out_f = 0
                for s in succs[bi]:
                    si = idx_of[s]
                    out_i |= live_i[si]
                    out_f |= live_f[si]
                ni = iuse[bi] | (out_i & ~idef[bi])
                nf = fuse[bi] | (out_f & ~fdef[bi])
                if ni != live_i[bi] or nf != live_f[bi]:
                    live_i[bi], live_f[bi] = ni, nf
                    changed = True
        self._fixed = self._fixed_values(live_i[0])
        keep = ~sum(1 << r for r in self._fixed)
        for bi, leader in enumerate(self._leaders):
            self._live_imask[leader] = live = live_i[bi] & keep
            self._live_iregs[leader] = _bits(live)
            self._live_fregs[leader] = _bits(live_f[bi])

    def _fixed_values(self, live_at_entry: int) -> dict:
        """Integer registers not live at pc 0 whose only definition writes
        one atom whatever the state, each mapped to that atom (the
        definition's transfer run on a scratch state; the origins it
        names are still made when the flow reaches it)."""
        defs: dict = {}
        for pc, li in enumerate(self.code):
            if li.dest >= 0 and not li.dest_f:
                defs[li.dest] = (pc, li) if li.dest not in defs else None
        st, origins, self.origins = _State(), self.origins, {}
        for r, d in defs.items():
            if d and d[1].op in _ATOM_OPS and not live_at_entry >> r & 1:
                self._step(st, *d, None)
        self.origins = origins
        return st.ir

    # -- origins --------------------------------------------------------
    def _ensure(self, key, **attrs) -> object:
        """Create or refresh an origin; flags the fixpoint when its
        attributes changed (extents/intervals converge with the states)."""
        org = self.origins.get(key)
        if org is None:
            self.origins[key] = _Origin(**attrs)
            self._dirty = True
        else:
            for k, v in attrs.items():
                if k == "name":
                    continue
                if getattr(org, k) != v:
                    setattr(org, k, v)
                    self._dirty = True
        return key

    def _kill_origin(self, st: _State, key) -> None:
        """Drop facts/comparisons that talk about a redefined origin.
        Each table is rebuilt only when something in it does (on the
        registry apps, never: see the soundness notes up top)."""
        if any(k == key for f in st.facts for k, _ in f):
            st.facts = {f: iv for f, iv in st.facts.items() if not _mentions(f, key)}
        if any(k == key for f, _ in st.neqz for k, _ in f):
            st.neqz = {fc for fc in st.neqz if not _mentions(fc[0], key)}
        cmp = st.cmp
        if key in cmp or any(
            key in a.terms or key in b.terms for _, a, b in cmp.values()
        ):
            st.cmp = {
                r: c
                for r, c in cmp.items()
                if r != key and key not in c[1].terms and key not in c[2].terms
            }

    def _atom(self, x) -> _Expr:
        """The one shared expression for origin key or int constant ``x``.

        Expressions are immutable, so registers that hold the same atom
        in every sweep hold the same object, and joins and the
        convergence check compare them by identity."""
        e = self._atoms.get(x)
        if e is None:
            e = self._atoms[x] = _Expr(x) if isinstance(x, int) else _Expr.of(x)
        return e

    # -- evaluation -----------------------------------------------------
    def _eval(self, e: _Expr) -> Interval:
        """Interval of ``e`` from its origins' intervals: the fold of
        ``_iscale`` and ``Interval.add`` over the terms, in plain ints
        (each scaled term, then each partial sum, is clipped to
        +-2**63 exactly as those two clip)."""
        lo = hi = e.const
        for key, k in e.terms.items():
            org = self.origins.get(key)
            if org is None:
                return TOP
            a, b = (org.iv.hi, org.iv.lo) if k < 0 else (org.iv.lo, org.iv.hi)
            if not k:
                a = b = 0
            if lo is not None:
                t = None if a is None else a * k
                lo = None if t is None or t < -_LIMIT or lo + t < -_LIMIT else lo + t
            if hi is not None:
                t = None if b is None else b * k
                hi = None if t is None or t > _LIMIT or hi + t > _LIMIT else hi + t
        return Interval(lo, hi)

    def _eval_wf(self, e: _Expr, facts: dict, depth: int = 2) -> Interval:
        """Evaluate with fact refinement: for each fact ``form in itv``
        try integer multiples ``e = lam*form + rest``."""
        best = self._eval(e)
        if depth <= 0 or not e.terms or not facts:
            return best
        for form, fiv in facts.items():
            for key, fcoeff in form:
                c = e.terms.get(key)
                if not c or c % fcoeff:
                    continue
                lam = c // fcoeff
                rest = dict(e.terms)  # e - lam * form
                for k, fc in form:
                    n = rest.get(k, 0) - fc * lam
                    if n:
                        rest[k] = n
                    else:
                        rest.pop(k, None)
                cand = _iscale(fiv, lam).add(
                    self._eval_wf(_Expr(e.const, rest), facts, depth - 1)
                )
                best = _meet(best, cand)
        return best

    def _value_align(self, e: _Expr) -> int:
        """Largest known a with value = 0 (mod a)."""
        g = 0
        for key, coeff in e.terms.items():
            org = self.origins.get(key)
            a = org.align if org is not None else 1
            g = math.gcd(g, abs(coeff) * a)
        if e.terms and g == 1:
            return 1
        return math.gcd(g, abs(e.const)) or (abs(e.const) or 1)

    def _expr_of(self, st: _State, arg) -> _Expr:
        is_f, idx = arg
        if is_f:
            return _Expr.of(("f", idx))  # float-typed: opaque, no origin
        # expressions are always truthy: a miss falls to the fixed table
        return st.ir.get(idx) or self._fixed.get(idx, _ZERO)

    def _frange_of(self, st: _State, arg):
        is_f, idx = arg
        if not is_f:
            return _UNK_F
        return st.fr.get(idx, (0.0, 0.0))

    # -- facts ----------------------------------------------------------
    def _add_fact(self, st: _State, diff: _Expr, iv: Interval) -> None:
        form = diff.form(self._rkeys)
        if not form:
            return
        shifted = iv.sub(Interval.const(diff.const))
        prev = st.facts.get(form)
        st.facts[form] = shifted if prev is None else _meet(prev, shifted)

    def _edge_facts(self, st: _State, cond_reg: int, taken: bool) -> None:
        rec = st.cmp.get(cond_reg)
        if rec is None:
            return
        op, lhs, rhs = rec
        diff = lhs.sub(rhs)
        # dereference materialized-boolean tests: ``CBR (b != 0)`` where
        # ``b`` is itself a comparison result chains to the underlying
        # relation (the frontend emits these for every if/while)
        for _ in range(4):
            if op not in (Opcode.ICMP_EQ, Opcode.ICMP_NE):
                break
            if len(diff.terms) != 1:
                break
            ((k, coeff),) = diff.terms.items()
            inner = st.cmp.get(k)
            org = self.origins.get(k)
            if (
                inner is None
                or coeff not in (1, -1)
                or org is None
                or org.iv.lo is None
                or org.iv.lo < 0
                or org.iv.hi is None
                or org.iv.hi > 1
            ):
                break
            if coeff == -1:
                diff = diff.scale(-1)
            target = -diff.const  # the 0/1 value k is compared against
            if target not in (0, 1):
                break
            if_true = (target == 0) == (op is Opcode.ICMP_NE)
            taken = if_true if taken else not if_true
            op, lhs, rhs = inner
            diff = lhs.sub(rhs)
        if op not in _ORDER_EDGES:  # ICMP_EQ / ICMP_NE
            if taken == (op is Opcode.ICMP_EQ):
                self._add_fact(st, diff, Interval.const(0))
            else:
                st.neqz.add((diff.form(self._rkeys), diff.const))
        else:
            self._add_fact(st, diff, _ORDER_EDGES[op][not taken])

    # -- entry state ----------------------------------------------------
    def _entry_state(self) -> _State:
        st = _State()
        if self.wrapper:
            # launch contract of the marshalled wrapper kernels (KPARAM):
            # P0=NI (>=1), P1..P3=argc/argv/ret tables of 8*NI bytes from
            # one 256-aligned allocation, P4=total slots (>=1)
            self._ensure(("param", 0), name="NI", iv=Interval(1, None))
            for i, tag in ((1, "argc"), (2, "argv"), (3, "ret")):
                self._ensure(
                    ("param", i),
                    name=f"{tag}_table",
                    iv=Interval(NULL_GUARD, None),
                    align=256 if i == 1 else 8,
                    space=("table", tag),
                    extent=_Expr(0, {("param", 0): 8}),
                )
            self._ensure(("param", 4), name="nslots", iv=Interval(1, None))
        for i, (is_f, idx) in enumerate(self.kern.param_slots):
            if is_f:
                st.fr[idx] = _UNK_F
                continue
            key = ("arg", i)
            self._ensure(key, name=f"arg{i}", iv=Interval())
            st.ir[idx] = self._atom(key)
        return st

    # -- transfer -------------------------------------------------------
    def _set_ireg(self, st: _State, li, expr: _Expr) -> None:
        if li.dest >= 0 and not li.dest_f and li.dest not in self._fixed:
            st.ir[li.dest] = expr
            st.cmp.pop(li.dest, None)

    def _set_freg(self, st: _State, li, rng) -> None:
        if li.dest >= 0 and li.dest_f:
            st.fr[li.dest] = rng

    def _opaque(
        self,
        st: _State,
        li,
        pc: int,
        iv: Interval,
        align: int = 1,
        space: tuple | None = None,
        extent: _Expr | None = None,
        argc_link=None,
    ):
        key = ("pc", pc)
        if key in self.origins:  # else no state can mention it yet
            self._kill_origin(st, key)
        self._ensure(
            key,
            name=f"v{pc}",
            iv=iv,
            align=align,
            space=space,
            extent=extent,
            argc_link=argc_link,
        )
        self._set_ireg(st, li, self._atom(key))
        return key

    def _flow(self, leader: int, st: _State, record=None):
        """Transfer a straight-line range; returns [(succ_leader, state)].

        With ``record`` (a dict) the walk also emits a SiteProof per
        memory/trap site from the converged state."""
        end = self._range_end(leader)
        pc = leader
        while pc < end:
            li = self.code[pc]
            op = li.op
            if op in _TERMINATORS:
                if op is Opcode.BR:
                    return [(li.targets[0], st)]
                if op is Opcode.CBR:
                    cond = li.args[0][1]
                    st_t, st_f = st, st.copy()
                    self._edge_facts(st_t, cond, True)
                    self._edge_facts(st_f, cond, False)
                    return [(li.targets[0], st_t), (li.targets[1], st_f)]
                return []  # RET / RETVAL / TRAP end the path
            self._step(st, pc, li, record)
            pc += 1
        return [(end, st)] if end < len(self.code) else []

    def _step(self, st: _State, pc: int, li, record) -> None:
        op = li.op

        if op is Opcode.MOVI:
            self._set_ireg(st, li, self._atom(int(li.imm)))
        elif op is Opcode.MOV:
            if li.dest_f:
                self._set_freg(st, li, self._frange_of(st, li.args[0]))
            else:
                self._set_ireg(st, li, self._expr_of(st, li.args[0]))
        elif op is Opcode.ADD:
            a = self._expr_of(st, li.args[0])
            b = self._expr_of(st, li.args[1])
            self._set_ireg(st, li, a.add(b))
        elif op is Opcode.SUB:
            a = self._expr_of(st, li.args[0])
            b = self._expr_of(st, li.args[1])
            self._set_ireg(st, li, a.sub(b))
        elif op is Opcode.MUL:
            a = self._expr_of(st, li.args[0])
            b = self._expr_of(st, li.args[1])
            if b.is_const:
                self._set_ireg(st, li, a.scale(b.const))
            elif a.is_const:
                self._set_ireg(st, li, b.scale(a.const))
            else:
                iv = self._eval_wf(a, st.facts).mul(
                    self._eval_wf(b, st.facts)
                )
                self._opaque(st, li, pc, iv)
        elif op is Opcode.INEG:
            self._set_ireg(st, li, self._expr_of(st, li.args[0]).scale(-1))
        elif op is Opcode.BNOT:
            a = self._expr_of(st, li.args[0])
            self._set_ireg(st, li, a.scale(-1).add_const(-1))
        elif op in (Opcode.SDIV, Opcode.SREM):
            if record is not None:
                self._trap_site(st, pc, li, record)
            a = self._eval_wf(self._expr_of(st, li.args[0]), st.facts)
            b = self._eval_wf(self._expr_of(st, li.args[1]), st.facts)
            iv = Interval()
            if a.lo is not None and a.lo >= 0 and b.lo is not None and b.lo >= 1:
                iv = (
                    Interval.of(0, a.hi)
                    if op is Opcode.SDIV
                    else Interval.of(
                        0,
                        None
                        if b.hi is None
                        else (b.hi - 1 if a.hi is None else min(a.hi, b.hi - 1)),
                    )
                )
            self._opaque(st, li, pc, iv)
        elif op is Opcode.SHL:
            a = self._expr_of(st, li.args[0])
            b = self._expr_of(st, li.args[1])
            if b.is_const and 0 <= b.const < 63:
                self._set_ireg(st, li, a.scale(1 << b.const))
            else:
                self._opaque(st, li, pc, Interval())
        elif op is Opcode.ASHR:
            a = self._expr_of(st, li.args[0])
            b = self._expr_of(st, li.args[1])
            if b.is_const and 0 <= b.const < 63:
                k = 1 << b.const
                av = self._eval_wf(a, st.facts)
                iv = Interval.of(
                    None if av.lo is None else av.lo // k,
                    None if av.hi is None else av.hi // k,
                )
                key = self._opaque(st, li, pc, iv)
                # floor-division invariant: a - k*dest in [0, k-1]
                self._add_fact(
                    st,
                    a.sub(_Expr.of(key).scale(k)),
                    Interval(0, k - 1),
                )
            else:
                self._opaque(st, li, pc, Interval())
        elif op is Opcode.AND:
            a = self._eval_wf(self._expr_of(st, li.args[0]), st.facts)
            b = self._eval_wf(self._expr_of(st, li.args[1]), st.facts)
            iv = Interval()
            nn_a = a.lo is not None and a.lo >= 0
            nn_b = b.lo is not None and b.lo >= 0
            if nn_a or nn_b:
                his = [
                    h
                    for h, nn in ((a.hi, nn_a), (b.hi, nn_b))
                    if nn and h is not None
                ]
                iv = Interval.of(0, min(his) if his else None)
            self._opaque(st, li, pc, iv)
        elif op in (Opcode.OR, Opcode.XOR):
            a = self._eval_wf(self._expr_of(st, li.args[0]), st.facts)
            b = self._eval_wf(self._expr_of(st, li.args[1]), st.facts)
            iv = Interval()
            if (
                a.lo is not None
                and a.lo >= 0
                and b.lo is not None
                and b.lo >= 0
            ):
                hi = None if a.hi is None or b.hi is None else a.hi + b.hi
                iv = Interval.of(0, hi)
            self._opaque(st, li, pc, iv)
        elif op in (Opcode.IMIN, Opcode.IMAX):
            a = self._expr_of(st, li.args[0])
            b = self._expr_of(st, li.args[1])
            av = self._eval_wf(a, st.facts)
            bv = self._eval_wf(b, st.facts)
            iv = av.min_(bv) if op is Opcode.IMIN else av.max_(bv)
            key = self._opaque(st, li, pc, iv)
            de = _Expr.of(key)
            bound = (
                Interval(None, 0) if op is Opcode.IMIN else Interval(0, None)
            )
            self._add_fact(st, de.sub(a), bound)
            self._add_fact(st, de.sub(b), bound)
        elif op is Opcode.SELECT:
            if li.dest_f:
                a = self._frange_of(st, li.args[1])
                b = self._frange_of(st, li.args[2])
                lo = None if a[0] is None or b[0] is None else min(a[0], b[0])
                hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
                self._set_freg(st, li, (lo, hi))
            else:
                av = self._eval_wf(
                    self._expr_of(st, li.args[1]), st.facts
                )
                bv = self._eval_wf(
                    self._expr_of(st, li.args[2]), st.facts
                )
                self._opaque(st, li, pc, av.join(bv))
        elif op in _CMP_OPS:
            a = self._expr_of(st, li.args[0])
            b = self._expr_of(st, li.args[1])
            key = self._opaque(st, li, pc, Interval(0, 1))
            if li.dest >= 0:
                # snapshot keyed by register AND by the boolean origin:
                # the frontend materializes booleans, so branches often
                # test ``cmp != 0`` and the origin key lets _edge_facts
                # chain back to the underlying relation
                st.cmp[li.dest] = (op, a, b)
                st.cmp[key] = (op, a, b)
        elif op in (
            Opcode.FCMP_EQ,
            Opcode.FCMP_NE,
            Opcode.FCMP_LT,
            Opcode.FCMP_LE,
            Opcode.FCMP_GT,
            Opcode.FCMP_GE,
        ):
            self._opaque(st, li, pc, Interval(0, 1))
        elif op is Opcode.GADDR:
            key = ("g", li.sym)
            nbytes = self.globals_info.get(li.sym)
            self._ensure(
                key,
                name=li.sym,
                iv=Interval(NULL_GUARD, None),
                align=8,
                space=("global", li.sym),
                extent=None if nbytes is None else _Expr(nbytes),
            )
            self._set_ireg(st, li, self._atom(key))
        elif op is Opcode.SALLOC:
            size = (int(li.imm) + 7) & ~7
            self._opaque(
                st,
                li,
                pc,
                Interval(NULL_GUARD, None),
                align=8,
                space=("stack", pc),
                extent=_Expr(size),
            )
        elif op is Opcode.KPARAM:
            # non-wrapper kernels bind raw launch parameters
            key = ("param", int(li.imm))
            if key not in self.origins:
                self._ensure(key, name=f"param{li.imm}", iv=Interval())
            self._set_ireg(st, li, self._atom(key))
        elif op is Opcode.LOAD:
            self._load(st, pc, li, record)
        elif op is Opcode.STORE:
            if record is not None:
                self._mem_site(st, pc, li, "store", record)
        elif op is Opcode.ATOMIC_ADD:
            if record is not None:
                self._mem_site(st, pc, li, "atomic", record)
            addr = self._expr_of(st, li.args[0])
            if (
                addr.const == 0
                and addr.terms == {("g", "__heap_cursor"): 1}
            ):
                # device malloc contract: the fetched cursor is a
                # 256-aligned in-heap block of `addend` bytes (malloc
                # traps on exhaustion before the block is ever used)
                addend = self._expr_of(st, li.args[1])
                self._opaque(
                    st,
                    li,
                    pc,
                    Interval(NULL_GUARD, None),
                    align=math.gcd(256, self._value_align(addend)),
                    space=("heap", pc),
                    extent=addend,
                )
            else:
                self._opaque(st, li, pc, Interval())
        elif op is Opcode.ATOMIC_MAX:
            if record is not None:
                self._mem_site(st, pc, li, "atomic", record)
            self._opaque(st, li, pc, Interval())
        elif op is Opcode.FPTOSI:
            if record is not None:
                self._trap_site(st, pc, li, record)
            lo, hi = self._frange_of(st, li.args[0])
            iv = Interval()
            if (
                lo is not None
                and hi is not None
                and math.isfinite(lo)
                and math.isfinite(hi)
            ):
                iv = Interval.of(math.floor(lo), math.ceil(hi))
            self._opaque(st, li, pc, iv)
        elif op is Opcode.SITOFP:
            iv = self._eval_wf(self._expr_of(st, li.args[0]), st.facts)
            self._set_freg(
                st,
                li,
                (
                    None if iv.lo is None else float(iv.lo),
                    None if iv.hi is None else float(iv.hi),
                ),
            )
        elif op is Opcode.MOVF:
            v = float(li.imm)
            self._set_freg(st, li, (v, v))
        elif op in (Opcode.FADD, Opcode.FSUB):
            a = self._frange_of(st, li.args[0])
            b = self._frange_of(st, li.args[1])
            if op is Opcode.FSUB:
                b = _fneg(b)
            self._set_freg(st, li, _fzip(operator.add, a, b))
        elif op is Opcode.FMUL:
            a = self._frange_of(st, li.args[0])
            b = self._frange_of(st, li.args[1])
            if None in a or None in b:
                self._set_freg(st, li, _UNK_F)
            else:
                prods = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
                self._set_freg(st, li, (min(prods), max(prods)))
        elif op is Opcode.FNEG:
            self._set_freg(st, li, _fneg(self._frange_of(st, li.args[0])))
        elif op is Opcode.FABS:
            a = self._frange_of(st, li.args[0])
            if None in a:
                self._set_freg(st, li, (0.0, None))
            else:
                lo = 0.0 if a[0] <= 0.0 <= a[1] else min(abs(a[0]), abs(a[1]))
                self._set_freg(st, li, (lo, max(abs(a[0]), abs(a[1]))))
        elif op in (Opcode.FMIN, Opcode.FMAX):
            a = self._frange_of(st, li.args[0])
            b = self._frange_of(st, li.args[1])
            self._set_freg(st, li, _fzip(min if op is Opcode.FMIN else max, a, b))
        elif op in (Opcode.SIN, Opcode.COS):
            a = self._frange_of(st, li.args[0])
            finite = (
                a[0] is not None
                and a[1] is not None
                and math.isfinite(a[0])
                and math.isfinite(a[1])
            )
            self._set_freg(st, li, (-1.0, 1.0) if finite else _UNK_F)
        elif op is Opcode.SQRT:
            a = self._frange_of(st, li.args[0])
            if a[0] is not None and a[0] >= 0.0:
                self._set_freg(
                    st,
                    li,
                    (
                        math.sqrt(a[0]),
                        None
                        if a[1] is None or not math.isfinite(a[1])
                        else math.sqrt(a[1]),
                    ),
                )
            else:
                self._set_freg(st, li, _UNK_F)
        elif li.dest >= 0:
            # anything else with a destination is opaque: FDIV and the
            # remaining transcendentals, RPC results, shuffles, reductions
            if li.dest_f:
                self._set_freg(st, li, _UNK_F)
            else:
                iv = Interval()
                if op in (Opcode.TID, Opcode.CTAID, Opcode.LANEID, Opcode.INSTANCE):
                    key = ("id", op.name)
                    self._ensure(key, name=op.name.lower(), iv=Interval(0, None))
                    self._set_ireg(st, li, self._atom(key))
                    return
                if op in (Opcode.NTID, Opcode.NCTAID):
                    key = ("id", op.name)
                    self._ensure(key, name=op.name.lower(), iv=Interval(1, None))
                    self._set_ireg(st, li, self._atom(key))
                    return
                self._opaque(st, li, pc, iv)
        # BARRIER / PAR_BEGIN / PAR_END / MEMCPY / MEMSET / RPC-void:
        # no register effects the domain tracks

    # -- memory / trap sites --------------------------------------------
    def _load(self, st: _State, pc: int, li, record) -> None:
        boundsv, src = self._mem_site(st, pc, li, "load", record)
        if li.dest_f:
            self._set_freg(st, li, _UNK_F)
            return
        # provenance contracts for the marshalling tables: only applied
        # to accesses with *proven* bounds (an out-of-extent read could
        # observe arbitrary memory, voiding the marshaller's guarantees)
        org = self.origins.get(src) if src is not None else None
        if boundsv is not Verdict.PROVEN:
            org = None
        addr = self._expr_of(st, li.args[0]).add_const(li.offset)
        if org is not None and org.space == ("table", "argc"):
            delta = addr.drop(src)
            key = self._opaque(st, li, pc, Interval(0, None))
            self._argc_at[(delta.form(self._rkeys), delta.const)] = key
            return
        if org is not None and org.space == ("table", "argv"):
            delta = addr.drop(src)
            argc_key = self._argc_at.get((delta.form(self._rkeys), delta.const))
            if argc_key is not None:
                # NULL-terminated vector: argc + 1 pointer slots
                self._opaque(
                    st,
                    li,
                    pc,
                    Interval(NULL_GUARD, None),
                    align=8,
                    space=("argvec", pc),
                    extent=_Expr(8, {argc_key: 8}),
                    argc_link=argc_key,
                )
                return
        if (
            org is not None
            and org.space is not None
            and org.space[0] == "argvec"
            and org.argc_link is not None
        ):
            # an in-range argv slot (index < argc) is a marshalled,
            # non-null string pointer
            self._opaque(
                st,
                li,
                pc,
                Interval(NULL_GUARD, None),
                space=("argstr", pc),
            )
            return
        self._opaque(st, li, pc, Interval())

    def _mem_site(self, st: _State, pc: int, li, kind: str, record):
        """Bounds-check one memory site; returns ``(bounds verdict, base
        origin key)``.  The null and alignment verdicts feed only the
        certificate, so they are computed only when ``record`` is set;
        without it, the bounds verdict only where ``_load`` reads it
        (``_reads_bounds``; ``_eval_wf`` is pure, so skipping is exact)."""
        size = li.mty.size if li.mty is not None else 1
        addr = self._expr_of(st, li.args[0]).add_const(li.offset)

        boundsv = Verdict.UNPROVEN
        src = None
        spaced = [
            (k, c)
            for k, c in addr.terms.items()
            if self.origins.get(k) is not None
            and self.origins[k].space is not None
        ]
        if len(spaced) == 1 and spaced[0][1] == 1:
            src = spaced[0][0]
            ext = self.origins[src].extent
            if ext is not None and (
                record is not None or self._reads_bounds(self.origins[src])
            ):
                delta = addr.drop(src)
                dl = self._eval_wf(delta, st.facts)
                rem = self._eval_wf(
                    ext.sub(delta).add_const(-size), st.facts
                )
                if (
                    dl.lo is not None
                    and dl.lo >= 0
                    and rem.lo is not None
                    and rem.lo >= 0
                ):
                    boundsv = Verdict.PROVEN
                elif (dl.hi is not None and dl.hi < 0) or (
                    rem.hi is not None and rem.hi < 0
                ):
                    boundsv = Verdict.DISPROVEN
        if record is None or pc in record:
            return boundsv, src

        iv = self._eval_wf(addr, st.facts)
        if iv.lo is not None and iv.lo >= NULL_GUARD:
            nullv = Verdict.PROVEN
        elif iv.hi is not None and iv.hi < NULL_GUARD:
            nullv = Verdict.DISPROVEN
        else:
            nullv = Verdict.UNPROVEN

        if size == 1:
            alignv = Verdict.PROVEN
        else:
            g = 0
            for key, coeff in addr.terms.items():
                org = self.origins.get(key)
                g = math.gcd(g, abs(coeff) * (org.align if org else 1))
            if not addr.terms or g % size == 0:
                alignv = (
                    Verdict.PROVEN
                    if addr.const % size == 0
                    else Verdict.DISPROVEN
                )
            else:
                alignv = Verdict.UNPROVEN

        src_org = self.origins.get(src) if src is not None else None
        witness = f"addr={iv!r}"
        if src_org is not None and src_org.space is not None:
            witness += f" base={src_org.space[0]}:{src_org.name}"
        record[pc] = SiteProof(
            pc=pc,
            kind=kind,
            size=size,
            null=nullv,
            align=alignv,
            bounds=boundsv,
            witness=witness,
            loc=li.loc,
        )
        return boundsv, src

    @staticmethod
    def _reads_bounds(org: _Origin) -> bool:
        """``_load`` reads a bounds verdict only for a load from a
        marshalling table or an argv vector."""
        return org.space[0] in ("table", "argvec")

    def _trap_site(self, st: _State, pc: int, li, record) -> None:
        op = li.op
        if op in (Opcode.SDIV, Opcode.SREM):
            kind = "sdiv" if op is Opcode.SDIV else "srem"
            d = self._expr_of(st, li.args[1])
            iv = self._eval_wf(d, st.facts)
            if (iv.lo is not None and iv.lo >= 1) or (
                iv.hi is not None and iv.hi <= -1
            ):
                trapv = Verdict.PROVEN
            elif (d.form(self._rkeys), d.const) in st.neqz:
                trapv = Verdict.PROVEN
            elif iv.as_const == 0:
                trapv = Verdict.DISPROVEN
            else:
                trapv = Verdict.UNPROVEN
            witness = f"divisor={iv!r}"
        else:
            kind = "fptosi"
            lo, hi = self._frange_of(st, li.args[0])
            if (
                lo is not None
                and hi is not None
                and math.isfinite(lo)
                and math.isfinite(hi)
            ):
                trapv = Verdict.PROVEN
            elif (
                lo is not None
                and hi is not None
                and lo == hi
                and not math.isfinite(lo)
            ):
                trapv = Verdict.DISPROVEN
            else:
                trapv = Verdict.UNPROVEN
            witness = f"operand=({lo}, {hi})"
        if pc not in record:
            record[pc] = SiteProof(
                pc=pc,
                kind=kind,
                size=0,
                trap=trapv,
                witness=witness,
                loc=li.loc,
            )

    # -- joins ----------------------------------------------------------
    def _phi_norm(self, e: _Expr) -> _Expr:
        """Resolve collapsed phi keys in ``e`` to their current identity."""
        if not e.has_merge:
            return e
        seen: set = set()
        for _ in range(4):
            sub = None
            for k in e.terms:
                if k[0] == "m" and k not in seen and k in self.phi_val:
                    pv = self.phi_val[k]
                    if k not in pv.terms:
                        sub = (k, pv)
                        break
            if sub is None:
                return e
            k, pv = sub
            seen.add(k)
            c = e.terms[k]
            e = e.drop(k).add(pv.scale(c))
        return e

    def _norm_facts(self, facts: dict) -> dict:
        """Rewrite fact forms through collapsed-phi identities.

        After a phi collapses (``phi_val``), facts established while the
        merge origin was live still spell the invariant in the stale
        vocabulary; normalising both edges' forms lets the same
        invariant intersect verbatim at the join.
        """
        if not self._phi_stale(facts):
            return facts
        out: dict = {}
        for form, iv in facts.items():
            e = self._phi_norm(_Expr(0, dict(form)))
            form = e.form(self._rkeys)
            if not form:
                continue
            if e.const:
                iv = iv.sub(Interval.const(e.const))
            prev = out.get(form)
            out[form] = iv if prev is None else _meet(prev, iv)
        return out

    def _norm_neqz(self, neqz: set) -> set:
        if not self._phi_stale(fc[0] for fc in neqz):
            return neqz
        out = set()
        for fc in neqz:
            e = self._phi_norm(_Expr(fc[1], dict(fc[0])))
            out.add((e.form(self._rkeys), e.const))
        return out

    def _phi_stale(self, forms) -> bool:
        """Some form mentions a merge origin ``phi_val`` rewrites."""
        phi_val = self.phi_val
        return any(k[0] == "m" and k in phi_val for f in forms for k, _ in f)

    def _join_states(self, leader: int, ins: list) -> _State:
        """Fold the sweep's incoming edge states for one leader.

        Each edge state comes fresh from one ``_flow`` and feeds only
        this leader, so the first one is pruned to the live registers in
        place rather than copied.  A join keeps only what both edges
        share, so that prunes the whole fold."""
        st = ins[0]
        ir, fr = st.ir, st.fr
        st.ir = {i: ir[i] for i in self._live_iregs[leader] if i in ir}
        st.fr = {i: fr[i] for i in self._live_fregs[leader] if i in fr}
        st.cmp = self._live_cmp(leader, st.cmp)
        folded: set = set()  # regs that became real merges in this fold
        for inc in ins[1:]:
            st = self._merge_pair(leader, st, inc, folded)
        return st

    def _live_cmp(self, leader: int, cmp: dict) -> dict:
        """``cmp`` less the records of registers dead at ``leader`` (each
        is redefined, dropping its record, before it is read); records
        keyed by a comparison's origin stay."""
        live = self._live_imask[leader]
        return {r: c for r, c in cmp.items() if type(r) is not int or live >> r & 1}

    def _merge_pair(
        self, leader: int, cur: _State, inc: _State, folded: set
    ) -> _State:
        self.visits[leader] = self.visits.get(leader, 0) + 1
        widen_floats = self.visits[leader] > 3

        merged = _State()
        # edge expressions of each merge origin: mkey -> expr on that edge
        sub_cur: dict = {}
        sub_inc: dict = {}
        # Every register normalizes against the phi identities as they
        # stood before this join; the join's own updates land after the
        # walk, so the walk order cannot leak into the result.
        phi_upd: dict = {}
        phi_val = self.phi_val
        cir, iir = cur.ir, inc.ir
        iget = iir.get
        # ``cur`` carries only live registers, and most hold the same
        # merge-free object on both edges and have no phi: those pass
        # through as they are, and the walk visits the rest
        merged.ir = dict(cir)
        phis = self._phi_regs.get(leader, 0)
        walk = [
            i
            for i, a in cir.items()
            if iget(i) is not a or a.has_merge or phis >> i & 1
        ]
        live = self._live_imask[leader]
        walk += [i for i in iir.keys() - cir.keys() if live >> i & 1]
        for i in walk:
            a = cir.get(i, _ZERO)
            b = iget(i, _ZERO)
            equal = a is b or a == b
            mkey = ("m", leader, i)
            if equal and not a.has_merge:
                # the common case: the phi collapses to the edges' value
                merged.ir[i] = a
                phi_upd[mkey] = a
                continue
            e1 = self._phi_norm(a)
            # equal edge expressions normalize to equal expressions
            e2 = e1 if equal else self._phi_norm(b)
            if e1 == e2:
                if not _mentions_leader(e1, leader):
                    merged.ir[i] = e1
                    phi_upd[mkey] = e1
                    continue
                if _is_origin(e1, mkey):
                    merged.ir[i] = e1
                    continue
                if e2 is e1 and a is not b:
                    # a real merge keeps each edge's own term order: the
                    # fact join picks its rewrite pivots in that order
                    e2 = self._phi_norm(b)
            elif i not in folded:
                # phi-self simplification: an edge carrying exactly this
                # join's own merge origin says "unchanged since the last
                # join here", so the phi collapses to the other operand
                # (loop-invariant registers keep their preheader identity
                # instead of being widened by a one-sweep-stale back edge)
                if _is_origin(e1, mkey):
                    merged.ir[i] = e2
                    phi_upd[mkey] = e2
                    continue
                if _is_origin(e2, mkey):
                    merged.ir[i] = e1
                    phi_upd[mkey] = e1
                    continue
            iv_in = self._eval(e1).join(self._eval(e2))
            al_in = math.gcd(self._value_align(e1), self._value_align(e2)) or 1
            org = self.origins.get(mkey)
            if org is None:
                self._ensure(
                    mkey, name=f"phi{leader}.{i}", iv=iv_in, align=al_in
                )
                self._phi_regs[leader] = phis = phis | 1 << i
            else:
                niv = org.iv.widen(org.iv.join(iv_in))
                nal = math.gcd(org.align, al_in) or 1
                if niv != org.iv or nal != org.align:
                    org.iv, org.align = niv, nal
                    self._dirty = True
            merged.ir[i] = self._atom(mkey)
            phi_upd[mkey] = None  # a real merge: phi denotes itself
            folded.add(i)
            sub_cur[mkey] = e1
            sub_inc[mkey] = e2

        for mkey, e in phi_upd.items():
            if e is None:
                phi_val.pop(mkey, None)
            elif mkey in self.origins:  # no expression mentions any other
                phi_val[mkey] = e

        cfr, ifr = cur.fr, inc.fr
        for i in self._live_fregs[leader]:
            if i not in cfr and i not in ifr:
                continue
            v1 = cfr.get(i, (0.0, 0.0))
            v2 = ifr.get(i, (0.0, 0.0))
            if v1 == v2:
                merged.fr[i] = v1
            elif widen_floats:
                merged.fr[i] = _UNK_F
            else:
                merged.fr[i] = (
                    None if v1[0] is None or v2[0] is None else min(v1[0], v2[0]),
                    None if v1[1] is None or v2[1] is None else max(v1[1], v2[1]),
                )

        merged.facts = self._join_facts(
            leader, cur, inc, sub_cur, sub_inc
        )

        merged.neqz = {
            fc
            for fc in self._norm_neqz(cur.neqz) & self._norm_neqz(inc.neqz)
            if not _form_mentions_leader(fc[0], leader)
        }
        ccmp, icmp = cur.cmp, inc.cmp
        for r in ccmp.keys() & icmp.keys():
            c1, c2 = ccmp[r], icmp[r]
            if c1 == c2 and not (c1[1].has_merge or c1[2].has_merge):
                merged.cmp[r] = c1  # nothing to normalize
                continue
            c1 = (c1[0], self._phi_norm(c1[1]), self._phi_norm(c1[2]))
            c2 = (c2[0], self._phi_norm(c2[1]), self._phi_norm(c2[2]))
            if (
                c1 == c2
                and not _mentions_leader(c1[1], leader)
                and not _mentions_leader(c1[2], leader)
            ):
                merged.cmp[r] = c1

        return merged

    def _join_facts(
        self, leader: int, cur: _State, inc: _State, sub_cur, sub_inc
    ) -> dict:
        """Fact join that survives loop rotation.

        The loop invariant arrives in a different linear form on each
        edge (``INSTANCE - NI`` from the preheader, ``i + step - NI``
        from the latch), so key intersection would lose it.  Instead,
        candidate forms from both edges are rewritten into the post-join
        vocabulary (merge origins standing for the joined registers) and
        each candidate is then *validated semantically on both edges*:
        its merge origins are resolved to that edge's incoming
        expression and evaluated against that edge's own facts.  The
        resulting interval join is sound no matter how the candidate
        form was produced.
        """
        out: dict[tuple, Interval] = {}
        cfacts = self._norm_facts(cur.facts)
        ifacts = self._norm_facts(inc.facts)
        # fast path: forms present on both edges verbatim
        for form in cfacts.keys() & ifacts.keys():
            if not _form_mentions_leader(form, leader):
                j = cfacts[form].join(ifacts[form])
                if not j.is_top:
                    out[form] = j

        if not sub_cur and not sub_inc:
            return out

        # slow path: only *rewritten* forms (the rotated-loop invariant
        # arriving in a different shape per edge) are validated
        candidates: set[tuple] = set()

        def rewrite(facts: dict, subs: dict) -> None:
            # substitute merged registers in register order, however the
            # join walked them
            subs = sorted(subs.items())
            pivots = {k for _, e in subs for k, c in e.terms.items() if c in (1, -1)}
            for form in facts:
                if not any(k in pivots for k, _ in form):
                    continue  # nothing to eliminate: the form stays as it is
                expr = _Expr(0, dict(form))
                # best-effort translation: for every merged register,
                # eliminate one +-1 pivot shared with its edge expression
                # (the difference (edge_expr - mkey) is zero on the edge)
                changed = False
                for mkey, e in subs:
                    for k0, c0 in e.terms.items():
                        if c0 in (1, -1) and expr.terms.get(k0):
                            lam = expr.terms[k0] * c0
                            expr = expr.sub(
                                e.sub(_Expr.of(mkey)).scale(lam)
                            )
                            changed = True
                            break
                form2 = expr.form(self._rkeys)
                if changed and form2 and form2 not in out:
                    candidates.add(form2)

        rewrite(cfacts, sub_cur)
        rewrite(ifacts, sub_inc)

        def resolve(form: tuple, subs: dict) -> _Expr | None:
            out_e = _Expr(0)
            for k, c in form:
                if isinstance(k, tuple) and k[0] == "m" and k[1] == leader:
                    e = subs.get(k)
                    if e is None:
                        # a merge origin this join did not touch: on this
                        # edge we cannot say what it denotes; be safe
                        return None
                    out_e = out_e.add(e.scale(c))
                else:
                    out_e = out_e.add(_Expr(0, {k: c}))
            return out_e

        for form in sorted(candidates, key=repr)[:24]:
            r1 = resolve(form, sub_cur)
            r2 = resolve(form, sub_inc)
            if r1 is None or r2 is None:
                continue
            v1 = self._eval_wf(r1, cfacts, depth=1)
            v2 = self._eval_wf(r2, ifacts, depth=1)
            joined = v1.join(v2)
            if not joined.is_top:
                out[form] = joined
        return out

    # -- driver ---------------------------------------------------------
    def run(self) -> SafetyCertificate:
        cert = SafetyCertificate(kernel=self.kern.name)
        entry = self._entry_state()
        pos = self._rpo_index
        # round-robin Kleene iteration: every sweep recomputes each
        # leader FRESH from this sweep's forward-edge contributions plus
        # the previous sweep's back-edge contributions.  (Joining new
        # input against the previous sweep's own state would manufacture
        # spurious merges at single-predecessor leaders the moment an
        # upstream expression changes shape, destroying relational
        # facts.)  Merge-origin attributes widen monotonically across
        # sweeps via ``_ensure``, so the iteration terminates.
        back_in: dict[int, list] = {}
        converged = False
        for _ in range(_MAX_SWEEPS):
            self.sweeps += 1
            self._dirty = False
            fwd_in: dict[int, list] = {self._leaders[0]: [entry.copy()]}
            new_back: dict[int, list] = {}
            new_states: dict[int, _State] = {}
            for leader in self._leaders:
                ins = fwd_in.get(leader, []) + back_in.get(leader, [])
                if not ins:
                    continue
                st = self._join_states(leader, ins)
                new_states[leader] = st
                for succ, out in self._flow(leader, st.copy()):
                    if pos.get(succ, 0) <= pos[leader]:
                        new_back.setdefault(succ, []).append(out)
                    else:
                        fwd_in.setdefault(succ, []).append(out)
            changed = set(new_states) != set(self.states) or any(
                not new_states[L].same(self.states[L]) for L in new_states
            )
            self.states = new_states
            back_in = new_back
            if not changed and not self._dirty:
                converged = True
                break
        if not converged:
            # analysis did not converge: sound fallback, nothing proven
            self._scan_unproven(cert, "analysis budget exhausted")
            return cert

        record: dict[int, SiteProof] = {}
        for leader in self._leaders:
            st = self.states.get(leader)
            if st is None:
                continue
            self._flow(leader, st.copy(), record=record)
        cert.sites = record
        self._scan_unproven(cert, "unreachable")
        return cert

    def _scan_unproven(self, cert: SafetyCertificate, why: str) -> None:
        """Ensure every site has a proof entry (UNPROVEN by default)."""
        kinds = {
            Opcode.LOAD: "load",
            Opcode.STORE: "store",
            Opcode.ATOMIC_ADD: "atomic",
            Opcode.ATOMIC_MAX: "atomic",
            Opcode.SDIV: "sdiv",
            Opcode.SREM: "srem",
            Opcode.FPTOSI: "fptosi",
        }
        for pc, li in enumerate(self.code):
            kind = kinds.get(li.op)
            if kind is None or pc in cert.sites:
                continue
            size = li.mty.size if kind in _MEM_KINDS and li.mty else 0
            cert.sites[pc] = SiteProof(
                pc=pc, kind=kind, size=size, witness=why, loc=li.loc
            )


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


#: Process-wide memo of finished certificates keyed by lowered-code
#: content.  Builds recompile byte-identical modules constantly (cold/warm
#: differential twins, one build per backend/opt level); the abstract
#: interpretation is deterministic in its inputs, so identical kernels may
#: share one proof.  Keys embed :data:`ANALYZER_VERSION`, making every
#: memoized proof unreachable after an analyzer bump.
_CERT_MEMO: dict[str, SafetyCertificate] = {}
_CERT_MEMO_MAX = 256


def _kernel_digest(kern, globals_info: dict, wrapper: bool) -> str:
    h = hashlib.sha256()
    h.update(f"v{ANALYZER_VERSION}|w{int(wrapper)}|{kern.name}|".encode())
    for name in sorted(globals_info):
        h.update(f"g{name}={globals_info[name]};".encode())
    for li in kern.code:
        h.update(
            f"{li.op.name}|{li.dest}|{li.dest_f}|{li.args}|{li.imm!r}|"
            f"{li.mty}|{li.offset}|{li.sym}|{li.service}|{li.targets}|"
            f"{li.loc}\n".encode()
        )
    return h.hexdigest()


def analyze_kernel(
    kern, *, globals_info: dict, wrapper: bool, work: dict | None = None
) -> SafetyCertificate:
    """Run the safety analysis over one lowered kernel (memoized on the
    lowered code, the referenced global extents and the analyzer
    version).  ``work`` (a dict), when given, receives the work this call
    did: fixpoint ``sweeps``, pairwise ``joins``, the number of ``fixed``
    registers no state carried, and ``memo`` (whether the memo answered,
    in which case all three counts are 0)."""
    key = _kernel_digest(kern, globals_info, wrapper)
    cert = _CERT_MEMO.get(key)
    if cert is not None and cert.analyzer_version != ANALYZER_VERSION:
        # Certificates are shared objects; one whose version field was
        # clobbered (a tampered holder) must never be served again.
        cert = None
    sweeps = joins = fixed = 0
    memo = cert is not None
    if not memo:
        analyzer = _KernelAnalyzer(
            kern, globals_info=globals_info, wrapper=wrapper
        )
        cert = analyzer.run()
        sweeps, joins = analyzer.sweeps, sum(analyzer.visits.values())
        fixed = len(analyzer._fixed)
        if len(_CERT_MEMO) >= _CERT_MEMO_MAX:
            _CERT_MEMO.pop(next(iter(_CERT_MEMO)))
        _CERT_MEMO[key] = cert
    if work is not None:
        work.update(sweeps=sweeps, joins=joins, fixed=fixed, memo=memo)
    return cert


def certify_module(module, *, tracer=None, work: dict | None = None) -> dict:
    """Compute a :class:`SafetyCertificate` for every lowerable kernel.

    Kernels that cannot be lowered yet (calls not inlined — i.e. the
    module has not been finalized) are skipped, so the checkers degrade
    gracefully at earlier pipeline stages.  With an enabled
    :class:`~repro.obs.Tracer`, each kernel's analysis is one
    ``safety <kernel>`` span on the ``compiler`` track (after its
    ``lower`` span); ``work`` (a dict) receives each kernel's
    :func:`analyze_kernel` work counts.
    """
    from repro.errors import DeviceError, IRError
    from repro.runtime.kernel import ENSEMBLE_KERNEL
    from repro.runtime.machine import lower_kernel

    globals_info = {g.name: g.nbytes for g in module.globals.values()}
    certs: dict = {}
    for fn in module.kernels():
        try:
            kern = lower_kernel(fn, tracer=tracer, loops=False)
        except (DeviceError, IRError):
            continue
        done: dict = {}
        kw = dict(
            globals_info=globals_info,
            wrapper=fn.name == ENSEMBLE_KERNEL,
            work=done,
        )
        if tracer is not None and tracer.enabled:
            with tracer.span(
                f"safety {fn.name}", track="compiler", cat="safety"
            ) as span:
                certs[fn.name] = analyze_kernel(kern, **kw)
            span.args.update(done, sites=len(certs[fn.name].sites))
        else:
            certs[fn.name] = analyze_kernel(kern, **kw)
        if work is not None:
            work[fn.name] = done
    return certs


def certificates_for(module) -> dict:
    """The module's certificates: the stamped metadata when every value
    is a current :class:`SafetyCertificate`, else a fresh analysis (a
    stale or tampered stamp is never served)."""
    cached = module.metadata.get(SAFETY_META)
    if isinstance(cached, dict) and all(
        isinstance(c, SafetyCertificate)
        and c.analyzer_version == ANALYZER_VERSION
        for c in cached.values()
    ):
        return cached
    return certify_module(module)


def stamp_certificates(module, *, tracer=None, metrics=None) -> dict:
    """Compute certificates, stamp them into module metadata, and publish
    build-time ``safety.*`` counters: per-site verdicts, and the
    analysis work (fixpoint sweeps and pairwise joins) behind them."""
    work: dict = {}
    certs = certify_module(module, tracer=tracer, work=work)
    module.metadata[SAFETY_META] = certs
    if metrics is not None:
        for cert in certs.values():
            for proof in cert.sites.values():
                metrics.counter(
                    "safety.sites",
                    kind=proof.kind,
                    verdict=proof.verdict.name.lower(),
                ).inc()
        for done in work.values():
            metrics.counter("safety.sweeps").inc(done["sweeps"])
            metrics.counter("safety.joins").inc(done["joins"])
    return certs


def _site_diagnostics(module, kinds: tuple, checker: str) -> list:
    out = []
    for name, cert in certificates_for(module).items():
        for proof in cert.disproven():
            if proof.kind not in kinds:
                continue
            if proof.is_mem:
                failed = [
                    c
                    for c in ("null", "align", "bounds")
                    if getattr(proof, c) is Verdict.DISPROVEN
                ]
                what = "/".join(failed)
                msg = (
                    f"{proof.kind} of {proof.size} bytes fails the static "
                    f"{what} check on every execution ({proof.witness})"
                )
                hint = (
                    "the access is statically out of its allocation; fix "
                    "the index computation or launch with allow_unsafe to "
                    "keep the dynamic guard"
                )
            else:
                what = {
                    "sdiv": "integer division by zero",
                    "srem": "integer remainder by zero",
                    "fptosi": "float-to-int conversion of a non-finite value",
                }[proof.kind]
                msg = f"{what} on every execution ({proof.witness})"
                hint = "guard the operation or fix the operand computation"
            out.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    checker=checker,
                    function=name,
                    block=None,
                    index=proof.pc,
                    message=msg,
                    hint=hint,
                    loc=proof.loc,
                )
            )
    return out


def check_static_oob(module) -> list:
    """Lint checker: memory sites statically proven unsafe."""
    return _site_diagnostics(module, _MEM_KINDS, "static-oob")


def check_static_trap(module) -> list:
    """Lint checker: arithmetic trap sites statically proven to fire."""
    return _site_diagnostics(module, _TRAP_KINDS, "static-trap")


__all__ = [
    "ANALYZER_VERSION",
    "SAFETY_META",
    "Verdict",
    "SiteProof",
    "SafetyCertificate",
    "analyze_kernel",
    "certify_module",
    "certificates_for",
    "stamp_certificates",
    "check_static_oob",
    "check_static_trap",
]
