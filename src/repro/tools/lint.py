"""Ensemble-safety linter over the device IR.

Runs the :mod:`repro.analysis` checkers on an application at a chosen
pipeline stage and reports the findings as compiler-style text or JSON::

    python -m repro.tools.lint xsbench
    python -m repro.tools.lint rsbench --stage device --format json
    python -m repro.tools.lint pagerank --checker races --checker uninit
    python -m repro.tools.lint --all --fail-on error
    python -m repro.tools.lint pagerank --interproc
    python -m repro.tools.lint --driver examples/auto_ensemble_loop.py

``--interproc`` additionally reports the interprocedural facts
(recursive call cycles, globals that escape to the host through RPC)
from :mod:`repro.analysis.interproc`.

``--driver`` lints *host* driver scripts instead of device IR: every
top-level function's ``for`` loops go through the loop-carried
dependence analyzer (:mod:`repro.analysis.driverdep`), reporting which
loops the auto-ensemble frontend would accept and, for the rest, the
variable, dependence kind, and line blocking parallel execution.
``--driver-fn`` restricts the analysis to one function.  Driver and app
linting compose in one invocation; both feed the same exit code.

Exit status (stable contract for CI):

* ``0`` — clean (no diagnostic at or above ``--fail-on``),
* ``1`` — findings at or above the ``--fail-on`` severity (default
  ``error``),
* ``2`` — usage error (unknown app name, unreadable/unparsable driver
  script),
* ``3`` — internal error (a checker or the compiler crashed).

The JSON format (``--format json``) is a stable schema: one object with
``stage``, ``apps``, ``safety`` and (when ``--driver`` is used)
``drivers``; each app or driver script maps to a list of diagnostics
carrying ``file``/``line``/``col`` (source provenance when the frontend
recorded it), ``severity``, ``checker``, ``function``/``block``/
``index``, ``sym``, ``message`` and ``hint``.  ``safety`` maps each app
to its per-kernel :class:`~repro.analysis.safety.SafetyCertificate`
summaries (site counts, proven/unproven/disproven tallies, guard-free
coverage) — the proof state behind the ``static-oob``/``static-trap``
checkers.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import traceback

from repro.analysis import CHECKERS, Severity, analyze_module, count_by_severity
from repro.analysis.diagnostics import Diagnostic
from repro.tools.objdump import STAGES, module_at_stage

#: ``--fail-on`` choices mapped to severity thresholds (``never`` disables).
FAIL_LEVELS = {
    "error": Severity.ERROR,
    "warning": Severity.WARNING,
    "note": Severity.NOTE,
    "never": None,
}

#: Stable exit codes (see module docstring).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def lint_app(
    entry, stage: str, checkers: list[str] | None, *, interproc: bool = False
) -> list[Diagnostic]:
    """Compile one registry app to ``stage`` and run the checkers on it."""
    return _lint_app(entry, stage, checkers, interproc=interproc)[1]


def _lint_app(
    entry, stage: str, checkers: list[str] | None, *, interproc: bool = False
):
    """``lint_app`` that also hands back the staged module, so the JSON
    renderer can attach the safety-certificate summaries without a second
    compile."""
    module = module_at_stage(entry.build_program(), stage)
    diags = analyze_module(module, checkers)
    if interproc:
        from repro.analysis.interproc import interproc_facts

        diags.extend(interproc_facts(module))
    return module, diags


def lint_driver(
    path: str, func_name: str | None = None
) -> list[Diagnostic]:
    """Run the loop-dependence analyzer over one driver script.

    Raises :class:`~repro.errors.AnalysisError` (a usage error for the
    CLI) when the file cannot be read or parsed, or when ``func_name``
    names a function without a ``for`` loop.
    """
    from repro.analysis.driverdep import classify_loop, lift_source
    from repro.errors import AnalysisError

    try:
        source = open(path).read()
    except OSError as exc:
        raise AnalysisError(f"cannot read driver script {path}: {exc}") from exc
    diags: list[Diagnostic] = []
    for loop in lift_source(source, filename=path, func_name=func_name):
        diags.extend(classify_loop(loop).diagnostics)
    return diags


def _safety_summaries(module) -> dict:
    """Per-kernel :meth:`~repro.analysis.safety.SafetyCertificate.summary`
    dicts for the JSON report (empty when the stage has no lowerable
    kernels — early stages have nothing to certify)."""
    from repro.analysis.safety import certificates_for
    from repro.errors import ReproError

    try:
        certs = certificates_for(module)
    except ReproError:
        return {}
    return {name: cert.summary() for name, cert in sorted(certs.items())}


def _app_source_file(entry) -> str | None:
    """The Python source file an app is defined in — the closest thing the
    DSL has to a translation unit, and what ``line``/``col`` refer to."""
    try:
        return inspect.getsourcefile(entry.build_program)
    except (TypeError, OSError):
        return None


def _render_text(app: str, diags: list[Diagnostic]) -> None:
    counts = count_by_severity(diags)
    tally = ", ".join(
        f"{counts[sev.label]} {sev.label}{'s' if counts[sev.label] != 1 else ''}"
        for sev in (Severity.ERROR, Severity.WARNING, Severity.NOTE)
        if counts.get(sev.label)
    )
    print(f"== {app}: {tally or 'clean'}")
    for d in diags:
        print(d.format())


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (see module doc for usage)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Run the ensemble-safety checkers on application IR.",
    )
    parser.add_argument("app", nargs="*", help="registry app name(s)")
    parser.add_argument(
        "--all", action="store_true", help="lint every registered app"
    )
    parser.add_argument("--stage", choices=STAGES, default="final")
    parser.add_argument(
        "--checker",
        action="append",
        choices=sorted(CHECKERS),
        help="run only this checker (repeatable; default: all)",
    )
    parser.add_argument(
        "--interproc",
        action="store_true",
        help="also report interprocedural facts (recursive call cycles, "
        "globals escaping through RPC)",
    )
    parser.add_argument(
        "--driver",
        action="append",
        metavar="SCRIPT",
        help="lint a host driver script with the loop-carried dependence "
        "analyzer instead of (or in addition to) app IR (repeatable)",
    )
    parser.add_argument(
        "--driver-fn",
        metavar="NAME",
        default=None,
        help="restrict --driver analysis to one function",
    )
    parser.add_argument(
        "--fail-on",
        choices=sorted(FAIL_LEVELS),
        default="error",
        help="exit nonzero when a diagnostic at or above this severity fires",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default=None,
        help="output format (default: text)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="deprecated alias for --format json",
    )
    args = parser.parse_args(argv)
    fmt = args.format or ("json" if args.json else "text")

    from repro.apps.registry import APPS

    if args.all:
        names = sorted(APPS)
    elif args.app:
        names = args.app
    elif args.driver:
        names = []
    else:
        parser.error("name at least one app, pass --all, or pass --driver")
    if args.driver_fn and not args.driver:
        parser.error("--driver-fn requires --driver")

    unknown = [n for n in names if n not in APPS]
    if unknown:
        print(
            f"unknown app(s) {unknown}; choices: {sorted(APPS)}", file=sys.stderr
        )
        return EXIT_USAGE

    threshold = FAIL_LEVELS[args.fail_on]
    failed = False
    report: dict[str, list[dict]] = {}
    safety_report: dict[str, dict] = {}
    for name in names:
        entry = APPS[name]
        try:
            module, diags = _lint_app(
                entry, args.stage, args.checker, interproc=args.interproc
            )
        except Exception:
            print(f"internal error linting {name!r}:", file=sys.stderr)
            traceback.print_exc()
            return EXIT_INTERNAL
        if fmt == "json":
            src = _app_source_file(entry)
            report[name] = [dict(d.to_dict(), file=src) for d in diags]
            safety_report[name] = _safety_summaries(module)
        else:
            _render_text(name, diags)
        if threshold is not None and any(d.severity >= threshold for d in diags):
            failed = True

    driver_report: dict[str, list[dict]] = {}
    for path in args.driver or []:
        from repro.errors import AnalysisError

        try:
            diags = lint_driver(path, args.driver_fn)
        except AnalysisError as exc:
            print(f"driver {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except Exception:
            print(f"internal error linting driver {path!r}:", file=sys.stderr)
            traceback.print_exc()
            return EXIT_INTERNAL
        if fmt == "json":
            driver_report[path] = [
                dict(d.to_dict(), file=path) for d in diags
            ]
        else:
            _render_text(path, diags)
        if threshold is not None and any(d.severity >= threshold for d in diags):
            failed = True

    if fmt == "json":
        out = {"stage": args.stage, "apps": report, "safety": safety_report}
        if args.driver:
            out["drivers"] = driver_report
        print(json.dumps(out, indent=2))
    return EXIT_FINDINGS if failed else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
