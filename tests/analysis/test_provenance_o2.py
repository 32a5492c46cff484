"""Regression: source provenance survives the -O2 pipeline.

The interprocedural stage rewrites aggressively (inlining, barrier
elimination, alias DCE, CFG simplification); lint diagnostics on the
finalized module must still point at the *original* DSL source lines.
"""

import inspect

from repro.analysis import analyze_module
from repro.passes import compile_for_device, finalize_executable
from repro.runtime.kernel import build_ensemble_kernel
from tests.analysis.fixtures import racy_counter_program


def finalized_at(opt_level):
    module = compile_for_device(racy_counter_program().compile())
    build_ensemble_kernel(module)
    return finalize_executable(module, opt_level=opt_level)


def fixture_line_range():
    lines, start = inspect.getsourcelines(racy_counter_program)
    return start, start + len(lines)


def test_race_diagnostic_points_at_source_after_o2():
    module = finalized_at(2)
    assert module.metadata.get("opt_level") == 2
    races = [d for d in analyze_module(module, ["races"]) if d.sym == "counter"]
    assert races, "the racy-global finding must survive -O2"
    located = [d for d in races if d.loc is not None]
    assert located, "post-O2 diagnostics lost their source locations"
    lo, hi = fixture_line_range()
    for d in located:
        assert lo <= d.loc[0] <= hi, (
            f"diagnostic line {d.loc[0]} is outside the fixture's "
            f"source range [{lo}, {hi}]"
        )


def test_o2_keeps_same_source_lines_as_o1():
    """-O2 must not re-point diagnostics anywhere -O1 would not."""

    def located_lines(opt_level):
        diags = analyze_module(finalized_at(opt_level), ["races"])
        return {d.loc[0] for d in diags if d.sym == "counter" and d.loc}

    assert located_lines(2) <= located_lines(1)
    assert located_lines(2)


def test_kernel_instrs_carry_locs_after_o2():
    module = finalized_at(2)
    kernel = next(f for f in module.functions.values() if f.is_kernel)
    lo, hi = fixture_line_range()
    user_locs = [
        instr.meta["loc"]
        for instr in kernel.iter_instrs()
        if "loc" in instr.meta and lo <= instr.meta["loc"][0] <= hi
    ]
    assert user_locs, "inlined user code lost its provenance at -O2"
