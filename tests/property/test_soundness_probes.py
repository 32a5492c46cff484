"""Soundness probes: sites the safety analyzer could PROVE next to a real
out-of-range or misaligned access.

Each probe in :data:`tests.oracle.BOUNDS_PROBES` and
:data:`tests.oracle.ALIGN_PROBES` has a ground truth known by
construction.  The faulty site must never get a PROVEN verdict for the
check it violates, and its twin must stay PROVEN, so the probe cannot
pass by proving nothing.  Every probe also runs through the compiled
backend in every safety mode at -O1 and -O2 against the interpreter.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

import repro.analysis.safety as safety
from repro.analysis.safety import Verdict
from tests.oracle import (
    ALIGN_PROBES,
    BOUNDS_PROBES,
    ORACLE,
    SAFETY_MATRIX,
    align_probe,
    bounds_probe,
    check,
    probe_sites,
)

MISALIGNED = r"device trap: misaligned i64 access at 0x[0-9a-f]+ \[team 0, .*\]"


def _sites(runs) -> list:
    sites = probe_sites(runs[ORACLE].module)
    assert sites, "the probe line has no memory site"
    return sites


@pytest.mark.parametrize("name", sorted(BOUNDS_PROBES))
def test_out_of_range_site_is_never_bounds_proven(name):
    sites = _sites(check(bounds_probe(name), SAFETY_MATRIX))
    assert all(p.bounds is not Verdict.PROVEN for p in sites), sites


@pytest.mark.parametrize("name", sorted(BOUNDS_PROBES))
def test_in_range_twin_stays_bounds_proven(name):
    sites = _sites(check(bounds_probe(name, twin=True), SAFETY_MATRIX))
    assert all(p.index_free for p in sites), sites


@pytest.mark.parametrize("name", sorted(ALIGN_PROBES))
def test_misaligned_site_is_never_align_proven_and_traps(name):
    runs = check(align_probe(name), SAFETY_MATRIX)
    assert all(p.align is not Verdict.PROVEN for p in _sites(runs))
    # every config traps with the interpreter's text (check() compared
    # the trap field of each run against the oracle's)
    assert re.fullmatch(MISALIGNED, runs[ORACLE].obs.trap)


@pytest.mark.parametrize("name", sorted(ALIGN_PROBES))
def test_aligned_twin_stays_align_proven(name):
    runs = check(align_probe(name, twin=True), SAFETY_MATRIX)
    assert runs[ORACLE].obs.trap is None
    assert all(p.guard_free for p in _sites(runs))


def test_forged_alignment_proof_fails_the_oracle(monkeypatch):
    """Negative control: forge a PROVEN alignment verdict on the
    misaligned site, and the assert-mode runs report the violation."""
    real = safety.analyze_kernel

    def forged(kern, **kw):
        cert = real(kern, **kw)
        sites = {
            pc: dataclasses.replace(p, align=Verdict.PROVEN) if p.is_mem else p
            for pc, p in cert.sites.items()
        }
        return dataclasses.replace(cert, sites=sites)

    monkeypatch.setattr(safety, "analyze_kernel", forged)
    asserting = [c for c in SAFETY_MATRIX if c.safety_mode == "assert"]
    with pytest.raises(AssertionError, match="safety certificate violated"):
        check(align_probe("store"), asserting)
