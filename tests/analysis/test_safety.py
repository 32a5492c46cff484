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
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Instr, Opcode
from repro.ir.module import Function
from repro.ir.types import I64, MemType, ScalarType
from repro.obs import Observability
from repro.passes import compile_for_device, finalize_executable
from repro.runtime.kernel import (
    ENSEMBLE_KERNEL,
    SINGLE_KERNEL,
    build_ensemble_kernel,
    build_single_kernel,
)
from repro.runtime.machine import lower_kernel
from repro.tools.safety_check import (
    BROKEN,
    bound_loops,
    build_with_bound,
    loop_verdicts,
)
from tests.oracle import (
    ALIGN_PROBES,
    BOUNDS_PROBES,
    Config,
    align_probe,
    bounds_probe,
    check,
    source_input,
)
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

#: A string pointer joined from two argv slots below the terminator.
ARGV_JOIN = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    acc = 0
    if argc > 3:
        s = argv[1]
        if argc > 4:
            s = argv[2]
        acc = s[0]
    return acc
"""


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
        assert list(certs) == [ENSEMBLE_KERNEL]
        for cert in certs.values():
            assert cert.analyzer_version == ANALYZER_VERSION
            assert cert.sites  # at least the buffer loads/stores

    def test_safe_program_has_no_disproven_sites(self):
        for cert in certify_module(_module(SAFE)).values():
            assert cert.disproven() == []

    def test_safe_program_memory_sites_mostly_proven(self):
        cert = certify_module(_module(SAFE))[ENSEMBLE_KERNEL]
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
        cert = certify_module(_module(SAFE))[ENSEMBLE_KERNEL]
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
            loader.run(LaunchSpec([[]], thread_limit=8, collect_timing=False))

    def test_allow_unsafe_keeps_the_dynamic_guard(self):
        loader = _loader(OOB, allow_unsafe=True)
        with pytest.raises(DeviceTrap):
            loader.run(LaunchSpec([[]], thread_limit=8, collect_timing=False))

    def test_safe_program_launches_without_override(self):
        loader = _loader(SAFE)
        assert loader.safety_disproven == {}
        res = loader.run(LaunchSpec([[]], thread_limit=32, collect_timing=False))
        assert res.exit_code == 96  # sum(5i, i<64) & 127


class TestSafetyModes:
    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_all_modes_agree(self, backend):
        modes = ("checked", "unchecked", "assert")
        check(source_input(SAFE), [Config(backend, safety_mode=m) for m in modes])

    def test_unknown_mode_rejected(self):
        """The device checks the mode of a launch made without a spec;
        ``test_launch_spec_rejects`` covers the spec."""
        from repro.errors import LaunchError

        loader = _loader(SAFE)
        with pytest.raises(LaunchError, match="safety_mode"):
            loader.device.launch(
                loader.image, ENSEMBLE_KERNEL, num_teams=1, thread_limit=8,
                safety_mode="yolo",
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


#: What two wrapper kernels of one program must agree on.
TWIN_COUNTS = ("proven", "guard_free", "index_free", "disproven", "unproven", "sites")


def _twin_certificates(app: str, opt_level: int) -> dict:
    """Wrapper certificates of ``app`` built the way ``build_executable``
    builds it, plus the prior-work ``__single_entry`` wrapper, which
    executables no longer carry, added to the same module."""
    module = compile_for_device(APPS[app].build_program().compile())
    build_single_kernel(module)
    build_ensemble_kernel(module)
    module = finalize_executable(module, opt_level=opt_level)
    globals_info = {g.name: g.nbytes for g in module.globals.values()}
    return {
        name: safety.analyze_kernel(
            lower_kernel(module.functions[name], loops=False),
            globals_info=globals_info,
            wrapper=True,
        )
        for name in (SINGLE_KERNEL, ENSEMBLE_KERNEL)
    }


class TestDeterminism:
    """The fixpoint's result depends on the program only: not on which of
    two near-identical kernels it analyses, nor on the order a join walks
    its registers."""

    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_twin_kernels_certify_alike(self, app, opt_level):
        certs = _twin_certificates(app, opt_level)
        single, ensemble = (
            {k: certs[name].summary()[k] for k in TWIN_COUNTS}
            for name in (SINGLE_KERNEL, ENSEMBLE_KERNEL)
        )
        assert single == ensemble
        # the added kernel leaves the executable's own proof as it is
        built = _registry_module(app, opt_level).metadata[SAFETY_META]
        assert certs[ENSEMBLE_KERNEL].to_dict() == built[ENSEMBLE_KERNEL].to_dict()

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


@functools.lru_cache(maxsize=None)
def _probe_module(kind: str, name: str, twin: bool):
    probe = bounds_probe if kind == "bounds" else align_probe
    return build_executable(probe(name, twin).program.compile(), opt_level=2)


def _skip_kernel():
    """``r = 8`` on one path only, then a load of ``g + r`` (``g`` one
    i64): ``r`` is read on the path that skips its one ``MOVI``."""
    fn = Function("k", [], ScalarType.VOID, is_kernel=True)
    b = IRBuilder(fn)
    b.set_block(fn.add_block("entry"))
    r = fn.new_reg(I64)
    setr, join = b.create_block("setr"), b.create_block("join")
    b.cbr(b.binop(Opcode.ICMP_SLT, b.kparam(0), b.const_i(0)), setr, join)
    b.set_block(setr)
    b.emit(Instr(Opcode.MOVI, r, imm=8))
    b.br(join)
    b.set_block(join)
    b.load(b.binop(Opcode.ADD, b.gaddr("g"), r), MemType.I64)
    b.ret()
    return lower_kernel(fn, loops=False)


def _late_branch_kernel():
    """``c = (n == 0)`` in one block, ``if c: load g + n`` in the next:
    the comparison's register is live across the block boundary."""
    fn = Function("k", [], ScalarType.VOID, is_kernel=True)
    b = IRBuilder(fn)
    b.set_block(fn.add_block("entry"))
    n = b.kparam(0)
    c = b.binop(Opcode.ICMP_EQ, n, b.const_i(0))
    mid, then, done = (b.create_block(x) for x in ("mid", "then", "done"))
    b.br(mid)
    b.set_block(mid)
    b.cbr(c, then, done)
    b.set_block(then)
    b.load(b.binop(Opcode.ADD, b.gaddr("g"), n), MemType.I64)
    b.br(done)
    b.set_block(done)
    b.ret()
    return lower_kernel(fn, loops=False)


class TestSparseStates:
    """What the states leave out changes nothing: the certificates and
    the work counts equal those of an analyzer that carries every
    register fixed at its one definition, keeps every comparison record
    and computes every bounds verdict."""

    @staticmethod
    def _proofs(module, monkeypatch) -> dict:
        monkeypatch.setattr(safety, "_CERT_MEMO", {})
        work: dict = {}
        certs = certify_module(module, work=work)
        return {
            name: (cert.to_dict(), work[name]["sweeps"], work[name]["joins"])
            for name, cert in certs.items()
        }

    def _check_full_states_agree(self, module, monkeypatch) -> None:
        sparse = self._proofs(module, monkeypatch)
        analyzer = safety._KernelAnalyzer
        monkeypatch.setattr(analyzer, "_fixed_values", lambda self, live: {})
        monkeypatch.setattr(analyzer, "_live_cmp", lambda self, leader, cmp: cmp)
        monkeypatch.setattr(analyzer, "_reads_bounds", staticmethod(lambda org: True))
        assert self._proofs(module, monkeypatch) == sparse

    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_registry_apps_certify_as_with_full_states(
        self, monkeypatch, app, opt_level
    ):
        self._check_full_states_agree(_registry_module(app, opt_level), monkeypatch)

    @pytest.mark.parametrize("twin", [False, True], ids=["probe", "twin"])
    @pytest.mark.parametrize(
        "kind,name",
        [("bounds", n) for n in sorted(BOUNDS_PROBES)]
        + [("align", n) for n in sorted(ALIGN_PROBES)],
    )
    def test_soundness_probes_certify_as_with_full_states(
        self, monkeypatch, kind, name, twin
    ):
        self._check_full_states_agree(_probe_module(kind, name, twin), monkeypatch)

    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    def test_an_argv_string_joined_from_two_loads_needs_the_sweeps(
        self, monkeypatch, opt_level
    ):
        """``s`` joins two argv-vector loads, so the byte load through it
        is judged on the joined value the sweeps built: its null verdict
        rests on the argv provenance the sweeps compute, not on the
        record pass alone (which refreshes an origin only where it walks
        the load itself)."""
        module = _module(ARGV_JOIN, opt_level)

        def byte_load():
            monkeypatch.setattr(safety, "_CERT_MEMO", {})
            cert = certify_module(module)[ENSEMBLE_KERNEL]
            (site,) = (
                p for p in cert.sites.values() if p.kind == "load" and p.size == 1
            )
            return site.null

        assert byte_load() is Verdict.PROVEN
        self._check_full_states_agree(module, monkeypatch)
        monkeypatch.setattr(
            safety._KernelAnalyzer,
            "_reads_bounds",
            staticmethod(lambda org: org.space[0] == "table"),
        )
        assert byte_load() is Verdict.UNPROVEN

    def test_a_register_read_before_its_definition_stays_in_the_state(self):
        kern = _skip_kernel()
        (movi,) = (li for li in kern.code if li.op is Opcode.MOVI and li.imm == 8)
        (load,) = (pc for pc, li in enumerate(kern.code) if li.op is Opcode.LOAD)
        analyzer = safety._KernelAnalyzer(kern, globals_info={"g": 8}, wrapper=False)
        cert = analyzer.run()
        join = analyzer.states[max(pc for pc in analyzer.states if pc <= load)]
        assert movi.dest not in analyzer._fixed
        assert movi.dest in join.ir
        # ``g + 0`` on one path, ``g + 8`` (past the end) on the other
        assert cert.sites[load].bounds is Verdict.UNPROVEN
        # the registers fixed at a dominating definition leave the state
        assert analyzer._fixed and not analyzer._fixed.keys() & join.ir.keys()

    def test_a_comparison_live_across_a_block_keeps_its_record(self):
        cert = safety.analyze_kernel(
            _late_branch_kernel(), globals_info={"g": 8}, wrapper=False
        )
        (load,) = (p for p in cert.sites.values() if p.kind == "load")
        assert load.bounds is Verdict.PROVEN  # from the edge fact n == 0


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
        assert [e.name for e in spans] == [f"safety {ENSEMBLE_KERNEL}"]
        for span in spans:
            assert span.track == "compiler"
            assert set(span.args) == {"sweeps", "joins", "sites", "memo", "fixed"}
            assert span.args["sites"] > 0 and span.args["fixed"] > 0
        # the memo was cleared, so the proof is computed
        assert not any(span.args["memo"] for span in spans)
        sweeps = sum(span.args["sweeps"] for span in spans)
        joins = sum(span.args["joins"] for span in spans)
        assert sweeps > 0 and joins > 0
        assert obs.metrics.value("safety.sweeps") == sweeps
        assert obs.metrics.value("safety.joins") == joins

    @pytest.mark.parametrize("cached", [False, True], ids=["loader", "cache"])
    def test_traced_cold_build_spans_each_layer_once(self, cached):
        """A cold build runs the frontend once and proves one kernel."""
        from repro.compilecache import ExecutableCache

        device = GPUDevice(SMALL_DEVICE)
        obs = Observability.enabled()
        device.tracer, device.metrics = obs.tracer, obs.metrics
        cache = ExecutableCache() if cached else None
        Loader(Program.from_source(SAFE), device, heap_bytes=1 << 20, cache=cache)
        compiler = [e.name for e in obs.tracer.events if e.track == "compiler"]
        assert compiler.count("frontend") == 1
        assert [n for n in compiler if n.startswith("safety ")] == [
            f"safety {ENSEMBLE_KERNEL}"
        ]
        (frontend,) = (e for e in obs.tracer.events if e.name == "frontend")
        assert frontend.cat == "frontend" and frontend.end > frontend.start

    def test_a_memo_hit_does_no_analysis_work(self):
        module = _module(SAFE)  # certified once already: the memo answers
        work: dict = {}
        certify_module(module, work=work)
        assert work and all(
            w == {"sweeps": 0, "joins": 0, "fixed": 0, "memo": True}
            for w in work.values()
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

