"""Trap sites through the differential oracle: the soundness probe for
``safety_mode="unchecked"``.

Generated programs carry one argc-dependent trap site
(:data:`tests.oracle.TRAP_SITES`) that the launch gate cannot DISPROVE.
Both backends, in every safety mode and at -O1 and -O2, must trap with
the interpreter's exact text.  An unsound PROVEN verdict would drop the
guard (unchecked) or report ``safety certificate violated`` (assert);
the negative control forges such verdicts and requires the oracle to
notice.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.safety as safety
from repro.analysis.safety import Verdict
from tests.oracle import (
    ORACLE,
    SAFETY_MATRIX,
    TRAP_DEVICE,
    TRAP_SITES,
    Config,
    check,
    program_specs,
    render,
    run,
    source_input,
)

SPEC = (16, 3, 2, True, True, True, True)


def trap_input(spec, site):
    return source_input(render(spec, site), device=TRAP_DEVICE)


@settings(max_examples=12, deadline=None)
@given(program_specs, st.sampled_from(sorted(TRAP_SITES)))
def test_trap_text_matches_the_interpreter(spec, site):
    assert check(trap_input(spec, site), SAFETY_MATRIX)[ORACLE].obs.trap


#: What each site's trap says after the ``device trap:`` prefix.
TRAP_TEXT = {
    "div": r"integer division by zero",
    "null": r"access at -0x[0-9a-f]+ inside the null guard page \(i64\)",
    "end": r"access at 0x[0-9a-f]+ beyond device memory end 0x400000",
}


@pytest.mark.parametrize("site", sorted(TRAP_SITES))
def test_trap_text_has_one_prefix(site):
    """Memory faults re-trap with their own message: one ``device trap:``
    prefix, negative addresses as ``-0x…``."""
    trap = check(trap_input(SPEC, site), SAFETY_MATRIX)[ORACLE].obs.trap
    assert re.fullmatch(rf"device trap: {TRAP_TEXT[site]} \[team 0, .*\]", trap)


@pytest.mark.parametrize("site", sorted(TRAP_SITES))
def test_forged_proofs_fail_the_oracle(monkeypatch, site):
    """Negative control: with every site verdict forged to PROVEN, the
    assert-mode runs report a certificate violation the oracle rejects."""
    real = safety.analyze_kernel
    proven = dict.fromkeys(("null", "align", "bounds", "trap"), Verdict.PROVEN)

    def forged(kern, **kw):
        cert = real(kern, **kw)
        sites = {pc: dataclasses.replace(p, **proven) for pc, p in cert.sites.items()}
        return dataclasses.replace(cert, sites=sites)

    monkeypatch.setattr(safety, "analyze_kernel", forged)
    asserting = [c for c in SAFETY_MATRIX if c.safety_mode == "assert"]
    with pytest.raises(AssertionError, match="safety certificate violated"):
        check(trap_input(SPEC, site), asserting)


@pytest.mark.parametrize("opt_level", [1, 2])
def test_forged_bounds_proof_past_device_memory(monkeypatch, opt_level):
    """A forged bounds proof on the ``end`` site, whose argc-dependent
    index lands past device memory: ``assert`` mode names the violation
    ahead of the interpreter's end-of-memory text, ``checked`` mode
    ignores the proof, and ``unchecked`` trusts it (docs/safety.md)."""
    inp = trap_input(SPEC, "end")
    want = run(inp, ORACLE).obs.trap
    assert re.fullmatch(rf"device trap: {TRAP_TEXT['end']} \[team 0, .*\]", want)
    real = safety.analyze_kernel
    proven = dict.fromkeys(("null", "align", "bounds"), Verdict.PROVEN)

    def forged(kern, **kw):
        cert = real(kern, **kw)
        assert any(p.is_mem and not p.index_free for p in cert.sites.values())
        sites = {
            pc: dataclasses.replace(p, **proven) if p.is_mem else p
            for pc, p in cert.sites.items()
        }
        return dataclasses.replace(cert, sites=sites)

    monkeypatch.setattr(safety, "analyze_kernel", forged)

    def trap(mode):
        return run(inp, Config("compiled", opt_level, mode)).obs.trap

    assert trap("checked") == want
    assert trap("assert") == want.replace(
        "device trap: ", "device trap: safety certificate violated: "
    )
    # no end-of-memory backstop is left: numpy's own error escapes the launch
    with pytest.raises(IndexError):
        trap("unchecked")

