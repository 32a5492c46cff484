"""CI gate for the static safety analyzer (``make safety-check``).

Two legs, both of which must hold for the gate to pass:

* **Registry coverage** — every ported application, compiled at ``-O2``,
  must certify with zero DISPROVEN sites and at least
  :data:`MIN_COVERAGE` of its memory sites proven guard-free (the bar
  the compiled backend's unchecked fast path is built on).
* **Broken fixtures** — known-unsafe programs (a constant out-of-bounds
  load, a guaranteed division by zero) must produce DISPROVEN sites and
  trip the ``static-oob`` / ``static-trap`` checkers at ERROR severity.

Exit status: ``0`` when both legs hold, ``1`` otherwise.
"""

from __future__ import annotations

import argparse
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


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run both gates, exit 0 on pass, 1 on failure."""
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
    print("safety-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
