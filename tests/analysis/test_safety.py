"""The safety analyzer: per-site certificates, the static-oob /
static-trap checkers, the launch gate, and safety-mode parity."""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.analysis.safety as safety
from repro.analysis import Severity, analyze_module
from repro.analysis.ranges import Interval
from repro.analysis.safety import (
    ANALYZER_VERSION,
    SAFETY_META,
    Verdict,
    certificates_for,
    certify_module,
)
from repro.apps.registry import APPS
from repro.compilecache.build import build_executable
from repro.errors import DeviceTrap, LoaderError
from repro.frontend.dsl import Program
from repro.gpu.device import GPUDevice
from repro.host.loader import Loader
from repro.obs import Observability
from repro.tools.safety_check import (
    BROKEN,
    bound_loops,
    build_with_bound,
    loop_verdicts,
)
from tests.oracle import Config, check, source_input
from tests.util import SMALL_DEVICE

SAFE = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(64)
    for i in dgpu.parallel_range(64):
        buf[i] = i * 5
    total = malloc_i64(1)
    total[0] = 0
    for j in range(64):
        total[0] = total[0] + buf[j]
    return total[0] & 127
"""

OOB, DIV0 = BROKEN["oob"][0], BROKEN["div0"][0]


def _module(src, opt_level=2):
    return build_executable(Program.from_source(src).compile(), opt_level=opt_level)


def _loader(src, **kw):
    return Loader(
        Program.from_source(src), GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20, **kw
    )


class TestCertificates:
    def test_build_stamps_certificates(self):
        module = _module(SAFE)
        certs = module.metadata[SAFETY_META]
        assert sorted(certs) == ["__ensemble_entry", "__single_entry"]
        for cert in certs.values():
            assert cert.analyzer_version == ANALYZER_VERSION
            assert cert.sites  # at least the buffer loads/stores

    def test_safe_program_has_no_disproven_sites(self):
        for cert in certify_module(_module(SAFE)).values():
            assert cert.disproven() == []

    def test_safe_program_memory_sites_mostly_proven(self):
        cert = certify_module(_module(SAFE))["__single_entry"]
        s = cert.summary()
        assert s["mem_sites"] > 0
        assert s["coverage"] >= 0.6  # the acceptance bar for registry apps

    def test_certificates_for_reuses_stamped_metadata(self):
        module = _module(SAFE)
        assert certificates_for(module) is module.metadata[SAFETY_META]

    def test_stale_analyzer_version_is_recomputed(self):
        module = _module(SAFE)
        stale = module.metadata[SAFETY_META]
        next(iter(stale.values())).analyzer_version = ANALYZER_VERSION + 1
        fresh = certificates_for(module)
        assert fresh is not stale
        assert all(
            c.analyzer_version == ANALYZER_VERSION for c in fresh.values()
        )

    def test_site_proof_dict_shape(self):
        cert = certify_module(_module(SAFE))["__single_entry"]
        for proof in cert.mem_sites():
            d = proof.to_dict()
            assert d["verdict"] in ("PROVEN", "UNPROVEN", "DISPROVEN")
            assert {"null", "align", "bounds"} <= set(d)


class TestCheckers:
    def test_static_oob_flags_constant_oob(self):
        diags = analyze_module(_module(OOB), ["static-oob"])
        errs = [d for d in diags if d.severity is Severity.ERROR]
        assert errs, "constant out-of-bounds access not flagged"
        assert all(d.checker == "static-oob" for d in errs)
        assert "allow_unsafe" in errs[0].hint

    def test_static_trap_flags_constant_div0(self):
        diags = analyze_module(_module(DIV0), ["static-trap"])
        errs = [d for d in diags if d.severity is Severity.ERROR]
        assert errs, "guaranteed division by zero not flagged"
        assert "division by zero" in errs[0].message

    def test_safe_program_lints_clean(self):
        assert analyze_module(_module(SAFE), ["static-oob", "static-trap"]) == []


class TestLaunchGate:
    def test_disproven_site_refuses_launch(self):
        loader = _loader(OOB)
        assert loader.safety_disproven
        with pytest.raises(LoaderError, match="allow_unsafe"):
            loader.run([], thread_limit=8, collect_timing=False)

    def test_allow_unsafe_keeps_the_dynamic_guard(self):
        loader = _loader(OOB, allow_unsafe=True)
        with pytest.raises(DeviceTrap):
            loader.run([], thread_limit=8, collect_timing=False)

    def test_safe_program_launches_without_override(self):
        loader = _loader(SAFE)
        assert loader.safety_disproven == {}
        res = loader.run([], thread_limit=32, collect_timing=False)
        assert res.exit_code == 96  # sum(5i, i<64) & 127


class TestSafetyModes:
    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_all_modes_agree(self, backend):
        modes = ("checked", "unchecked", "assert")
        check(source_input(SAFE), [Config(backend, safety_mode=m) for m in modes])

    def test_unknown_mode_rejected(self):
        from repro.errors import LaunchError

        with pytest.raises(LaunchError, match="safety_mode"):
            _loader(SAFE).run(
                [], thread_limit=8, collect_timing=False, safety_mode="yolo"
            )


class TestMutants:
    """The per-app negative control of ``make safety-check``."""

    def test_bound_loops_skip_literal_extents(self):
        src = (
            "def main(argc: i64, argv: ptr_ptr) -> i64:\n"
            "    w = malloc_f64(5)\n"
            "    a = malloc_f64(n)\n"
            "    for k in dgpu.parallel_range(5):\n"
            "        w[k] = 1.0\n"
            "    for j in dgpu.parallel_range(n):\n"
            "        a[j] = 2.0\n"
            "    return 0\n"
        )
        assert bound_loops(src) == [(5, "n", [6])]

    def test_raised_bound_loses_the_proof_its_twin_has(self):
        src = APPS["stream"].build_program().functions["main"].source
        loop = bound_loops(src)[0]
        verdicts = {}
        for raise_by in (0, 1):
            module, _ = build_with_bound("stream", loop, raise_by, 2)
            verdicts[raise_by] = set(loop_verdicts(module))
        assert verdicts[0] == {Verdict.PROVEN}
        assert Verdict.PROVEN not in verdicts[1] and verdicts[1]


@functools.lru_cache(maxsize=None)
def _registry_module(app: str, opt_level: int):
    return build_executable(
        APPS[app].build_program().compile(), opt_level=opt_level
    )


#: What the two wrapper kernels of one executable must agree on.
TWIN_COUNTS = ("proven", "guard_free", "index_free", "disproven", "unproven", "sites")


class TestDeterminism:
    """The fixpoint's result depends on the program only: not on which of
    two near-identical kernels it analyses, nor on the order a join walks
    its registers."""

    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_twin_kernels_certify_alike(self, app, opt_level):
        certs = _registry_module(app, opt_level).metadata[SAFETY_META]
        single, ensemble = (
            {k: certs[name].summary()[k] for k in TWIN_COUNTS}
            for name in ("__single_entry", "__ensemble_entry")
        )
        assert single == ensemble

    @pytest.mark.parametrize("opt_level", [1, 2])
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_join_walk_order_is_irrelevant(self, monkeypatch, app, opt_level):
        module = _registry_module(app, opt_level)
        want = {k: c.to_dict() for k, c in module.metadata[SAFETY_META].items()}
        liveness = safety._KernelAnalyzer._liveness

        def reversed_walk(self):
            liveness(self)
            for regs in self._live_iregs.values():
                regs.reverse()

        monkeypatch.setattr(safety._KernelAnalyzer, "_liveness", reversed_walk)
        monkeypatch.setattr(safety, "_CERT_MEMO", {})
        got = {k: c.to_dict() for k, c in certify_module(module).items()}
        assert got == want


class TestObservability:
    def test_build_records_one_safety_span_per_kernel(self, monkeypatch):
        monkeypatch.setattr(safety, "_CERT_MEMO", {})
        obs = Observability.enabled()
        build_executable(
            Program.from_source(SAFE).compile(),
            tracer=obs.tracer,
            metrics=obs.metrics,
        )
        spans = [e for e in obs.tracer.events if e.cat == "safety"]
        assert sorted(e.name for e in spans) == [
            "safety __ensemble_entry",
            "safety __single_entry",
        ]
        for span in spans:
            assert span.track == "compiler"
            assert set(span.args) == {"sweeps", "joins", "sites", "memo"}
            assert span.args["sites"] > 0
        # the twin kernels differ, so neither proof comes from the memo
        assert not any(span.args["memo"] for span in spans)
        sweeps = sum(span.args["sweeps"] for span in spans)
        joins = sum(span.args["joins"] for span in spans)
        assert sweeps > 0 and joins > 0
        assert obs.metrics.value("safety.sweeps") == sweeps
        assert obs.metrics.value("safety.joins") == joins

    def test_a_memo_hit_does_no_analysis_work(self):
        module = _module(SAFE)  # certified once already: the memo answers
        work: dict = {}
        certify_module(module, work=work)
        assert work and all(
            w == {"sweeps": 0, "joins": 0, "memo": True} for w in work.values()
        )


#: Interval ends and coefficients that straddle the +-2**63 clipping line.
_BIG = st.one_of(
    st.integers(-(2**65), 2**65),
    st.integers(-16, 16),
    st.builds(
        lambda d, sign: sign * (2**63 + d),
        st.integers(-16, 16),
        st.sampled_from([1, -1]),
    ),
)
_END = st.one_of(st.none(), _BIG)


def _reference_eval(analyzer, e) -> Interval:
    """``_eval`` as a fold of ``_iscale`` and ``Interval.add``."""
    iv = Interval.const(e.const)
    for key, coeff in e.terms.items():
        org = analyzer.origins.get(key)
        iv = iv.add(safety._iscale(org.iv, coeff) if org is not None else Interval())
    return iv


@settings(max_examples=300, deadline=None)
@given(
    const=_BIG,
    terms=st.lists(st.tuples(_END, _END, _BIG, st.booleans()), max_size=4),
)
@example(const=5, terms=[(-(2**63) - 1, 0, 1, True)])
@example(const=-5, terms=[(0, 2**63 + 1, 1, True)])
def test_eval_matches_the_interval_reference(const, terms):
    analyzer = safety._KernelAnalyzer.__new__(safety._KernelAnalyzer)
    analyzer.origins = {}
    coeffs = {}
    for i, (lo, hi, coeff, known) in enumerate(terms):
        if known:  # an unknown origin evaluates to an unbounded term
            analyzer.origins[i] = safety._Origin(f"o{i}", Interval(lo, hi))
        coeffs[i] = coeff
    e = safety._Expr(const, coeffs)
    assert analyzer._eval(e) == _reference_eval(analyzer, e)

