"""CI gate for the static safety analyzer (``make safety-check``).

Three legs, all of which must hold for the gate to pass:

* **Registry coverage** — every ported application, compiled at ``-O2``,
  must certify with zero DISPROVEN sites and at least
  :data:`MIN_COVERAGE` of its memory sites proven guard-free (the bar
  the compiled backend's unchecked fast path is built on).
* **Broken fixtures** — known-unsafe programs (a constant out-of-bounds
  load, a guaranteed division by zero) must produce DISPROVEN sites and
  trip the ``static-oob`` / ``static-trap`` checkers at ERROR severity.
* **Per-app mutants** — a negative control for every registry app: one
  ``parallel_range`` whose bound is the extent of a buffer it indexes is
  raised by one, and no access in the mutated loop may then be
  bounds-PROVEN (:func:`check_mutants`).

Exit status: ``0`` when every leg holds, ``1`` otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys

#: Minimum guard-free fraction of memory sites per wrapper kernel.
MIN_COVERAGE = 0.6

#: Known-unsafe fixtures -> the checker that must flag them.
BROKEN = {
    "oob": (
        """
def main(argc: i64, argv: ptr_ptr) -> i64:
    p = malloc_i64(4)
    return p[0 - 999999]
""",
        "static-oob",
    ),
    "div0": (
        """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(8)
    for i in dgpu.parallel_range(8):
        buf[i] = 7 // (i - i)
    return 0
""",
        "static-trap",
    ),
}


def check_registry(opt_level: int, min_coverage: float) -> bool:
    """Certify every registry app and gate on coverage.

    Prints the per-kernel certificate table; fails on any DISPROVEN
    site or guard-free coverage below ``min_coverage``.
    """
    from repro.analysis.safety import certify_module
    from repro.apps.registry import APPS
    from repro.compilecache.build import build_executable

    ok = True
    print(f"== registry apps at -O{opt_level} (coverage bar {min_coverage:.0%})")
    for name in sorted(APPS):
        module = build_executable(
            APPS[name].build_program().compile(), opt_level=opt_level
        )
        for kernel, cert in sorted(certify_module(module).items()):
            s = cert.summary()
            bad = []
            if s["disproven"]:
                bad.append(f"{s['disproven']} DISPROVEN site(s)")
            if s["mem_sites"] and s["coverage"] < min_coverage:
                bad.append(f"coverage {s['coverage']:.2f} < {min_coverage}")
            status = "FAIL: " + "; ".join(bad) if bad else "ok"
            print(
                f"  {name:10s} {kernel:18s} {s['mem_sites']:4d} mem sites, "
                f"{s['guard_free']:4d} guard-free ({s['coverage']:.2f}), "
                f"{s['trap_sites']} trap sites, "
                f"{s['disproven']} disproven  [{status}]"
            )
            ok &= not bad
    return ok


def check_broken_fixtures() -> bool:
    """Negative control: deliberately broken programs must be DISPROVEN
    and flagged by the static-oob / static-trap lint checkers."""
    from repro.analysis import Severity, analyze_module
    from repro.analysis.safety import certify_module
    from repro.compilecache.build import build_executable
    from repro.frontend.dsl import Program

    ok = True
    print("== broken fixtures (must be DISPROVEN and flagged)")
    for name, (src, checker) in BROKEN.items():
        module = build_executable(
            Program.from_source(src, name="fixture").compile(), opt_level=2
        )
        disproven = sum(
            len(c.disproven()) for c in certify_module(module).values()
        )
        errors = [
            d
            for d in analyze_module(module, [checker])
            if d.severity is Severity.ERROR
        ]
        good = disproven > 0 and bool(errors)
        print(
            f"  {name:6s} {disproven} disproven site(s), "
            f"{len(errors)} {checker} error(s)  "
            f"[{'ok' if good else 'FAIL'}]"
        )
        ok &= good
    return ok


_LOOP = re.compile(r"^(\s*)for (\w+) in dgpu\.parallel_range\((.+)\):")
_MALLOC = re.compile(r"(\w+) = malloc_\w+\((.+)\)")


def bound_loops(source: str) -> list[tuple[int, str, list[int]]]:
    """Every ``parallel_range`` of ``source`` whose bound is the extent
    of a buffer its loop body indexes: ``(line, bound, body lines)``,
    0-based.

    Literal bounds are skipped: malloc rounds a request up to a 256-byte
    block and bounds proofs are about the block (``docs/safety.md``), so
    one element past a small constant extent can still be in bounds.
    """
    lines = source.splitlines()
    extents: dict[str, set[str]] = {}
    for ln in lines:
        m = _MALLOC.search(ln)
        if m:
            extents.setdefault(m.group(2).strip(), set()).add(m.group(1))
    loops = []
    for idx, ln in enumerate(lines):
        m = _LOOP.match(ln)
        if not m:
            continue
        indent, var, bound = m.group(1), m.group(2), m.group(3).strip()
        if bound not in extents or bound.isdigit():
            continue
        body = []
        for j in range(idx + 1, len(lines)):
            if lines[j].strip() and not lines[j].startswith(indent + " "):
                break
            body.append(j)
        if any(f"{b}[{var}]" in lines[j] for j in body for b in extents[bound]):
            loops.append((idx, bound, body))
    return loops


def build_with_bound(name: str, loop, raise_by: int, opt_level: int):
    """The -O``opt_level`` executable of registry app ``name`` with the
    bound of ``loop`` (from :func:`bound_loops`) raised by ``raise_by``.

    The loop body's memory accesses get their source line negated, so
    they stay recognizable through inlining and lowering (no real source
    line is negative).  Returns ``(module, the loop's source line)``.
    """
    from repro.apps.registry import APPS
    from repro.compilecache.build import build_executable
    from repro.ir.instructions import Opcode

    idx, bound, body = loop
    program = APPS[name].build_program()
    sf = program.functions["main"]
    lines = sf.source.splitlines()
    if raise_by:
        lines[idx] = lines[idx].replace(
            f"parallel_range({bound})", f"parallel_range({bound} + {raise_by})", 1
        )
    program.functions["main"] = dataclasses.replace(sf, text="\n".join(lines) + "\n")
    module = program.compile()
    base = sf.pyfunc.__code__.co_firstlineno
    body_lines = {base + j for j in body}
    for instr in module.get_function("main").iter_instrs():
        loc = instr.meta.get("loc")
        if instr.op in (Opcode.LOAD, Opcode.STORE) and loc and loc[0] in body_lines:
            instr.meta["loc"] = (-loc[0], *loc[1:])
    return build_executable(module, opt_level=opt_level), lines[idx].strip()


def loop_verdicts(module) -> list:
    """Bounds verdicts of the marked loop-body sites of ``module``."""
    from repro.analysis.safety import certify_module

    return [
        p.bounds
        for cert in certify_module(module).values()
        for p in cert.mem_sites()
        if p.loc and p.loc[0] < 0
    ]


def check_mutants(opt_level: int) -> bool:
    """Negative control per registry app: raise one loop bound past its
    buffer's extent; no access in the loop may then be bounds-PROVEN.

    The loop is the first one whose accesses are all bounds-PROVEN as
    written (the twin), so the mutant removes a proof the analyzer makes;
    an app with no such loop mutates its first candidate and says so.
    """
    from repro.analysis.safety import Verdict
    from repro.apps.registry import APPS

    ok = True
    print(f"== per-app mutants at -O{opt_level} (loop bound raised by one)")
    for name in sorted(APPS):
        loops = bound_loops(APPS[name].build_program().functions["main"].source)
        if not loops:
            print(f"  {name:10s} no parallel_range over a buffer extent  [FAIL]")
            ok = False
            continue
        for loop in loops:
            twin, _ = build_with_bound(name, loop, 0, opt_level)
            twin_proven = all(v is Verdict.PROVEN for v in loop_verdicts(twin))
            if twin_proven:
                break
        else:
            loop = loops[0]
        mutant, what = build_with_bound(name, loop, 1, opt_level)
        verdicts = loop_verdicts(mutant)
        proven = verdicts.count(Verdict.PROVEN)
        good = bool(verdicts) and not proven
        twin = "twin proven" if twin_proven else "twin UNPROVEN"
        print(
            f"  {name:10s} {len(verdicts):3d} mutated site(s), {proven} "
            f"bounds-PROVEN, {twin}  [{'ok' if good else 'FAIL'}]  {what}"
        )
        ok &= good
    return ok


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run every leg, exit 0 on pass, 1 on failure."""
    parser = argparse.ArgumentParser(
        prog="repro-safety-check",
        description="Gate the static safety analyzer over the app registry.",
    )
    parser.add_argument("--opt-level", type=int, default=2)
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=MIN_COVERAGE,
        help="minimum guard-free fraction of memory sites per kernel",
    )
    args = parser.parse_args(argv)

    ok = check_registry(args.opt_level, args.min_coverage)
    ok &= check_broken_fixtures()
    ok &= check_mutants(args.opt_level)
    print("safety-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
