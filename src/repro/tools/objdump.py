"""objdump-style IR inspector.

Dumps the IR of an application at each pipeline stage, like inspecting a
real toolchain with ``clang -emit-llvm`` / ``llvm-dis`` between passes::

    python -m repro.tools.objdump --app xsbench --stage device
    python -m repro.tools.objdump --app rsbench --stage final --function __ensemble_entry
    python -m repro.tools.objdump --app amgmk --stats

Stages
------
``frontend``  after the restricted-Python frontend + libc link
``device``    after declare-target / rename-main / RPC lowering
``final``     after kernel construction and LTO finalization (call-free)
"""

from __future__ import annotations

import argparse
import sys

from repro.ir.module import Module
from repro.ir.printer import print_function, print_module
from repro.passes import compile_for_device, finalize_executable
from repro.runtime.kernel import build_ensemble_kernel

STAGES = ("frontend", "device", "final")


def module_at_stage(program, stage: str) -> Module:
    """Compile ``program`` up to the requested pipeline stage."""
    module = program.compile()
    if stage == "frontend":
        return module
    module = compile_for_device(module)
    if stage == "device":
        return module
    build_ensemble_kernel(module)
    return finalize_executable(module)


def stats_of(module: Module) -> dict:
    """Instruction/function statistics for a module."""
    per_fn = {
        name: fn.instruction_count() for name, fn in module.functions.items()
    }
    return {
        "functions": len(module.functions),
        "globals": len(module.globals),
        "kernels": [f.name for f in module.kernels()],
        "instructions_total": sum(per_fn.values()),
        "instructions_per_function": per_fn,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (see module doc for usage)."""
    parser = argparse.ArgumentParser(
        prog="repro-objdump", description="Dump application IR by pipeline stage."
    )
    parser.add_argument("--app", required=True, help="benchmark app name")
    parser.add_argument("--stage", choices=STAGES, default="final")
    parser.add_argument("--function", default=None, help="dump a single function")
    parser.add_argument(
        "--stats", action="store_true", help="print statistics instead of IR"
    )
    args = parser.parse_args(argv)

    from repro.apps.registry import APPS

    entry = APPS.get(args.app)
    if entry is None:
        print(f"unknown app {args.app!r}; choices: {sorted(APPS)}", file=sys.stderr)
        return 1
    module = module_at_stage(entry.build_program(), args.stage)

    if args.stats:
        stats = stats_of(module)
        print(f"module @{module.name} at stage {args.stage}")
        print(f"  functions:    {stats['functions']}")
        print(f"  globals:      {stats['globals']}")
        print(f"  kernels:      {', '.join(stats['kernels']) or '-'}")
        print(f"  instructions: {stats['instructions_total']}")
        for name, count in sorted(
            stats["instructions_per_function"].items(), key=lambda kv: -kv[1]
        ):
            print(f"    {name:24s} {count:6d}")
        return 0

    if args.function:
        fn = module.functions.get(args.function)
        if fn is None:
            print(
                f"no function {args.function!r}; have: {sorted(module.functions)}",
                file=sys.stderr,
            )
            return 1
        print(print_function(fn))
    else:
        print(print_module(module))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
