"""The tracked benchmark harness: report shape, aggregate ratios, JSON
round-trip, and the machine-independent regression gate."""

import json

import pytest

from repro.analysis import safety
from repro.apps.registry import APPS
from repro.gpu.device import GPUDevice
from repro.harness.bench import (
    BenchRecord,
    BenchReport,
    check_regression,
    measure_compile_walls,
    run_bench,
)
from repro.harness.figure6 import Figure6Workload
from repro.host.loader import Loader
from tests.util import SMALL_DEVICE

#: Miniature workloads so a real bench run stays test-sized.
TINY = {
    "rsbench": Figure6Workload(
        "rsbench", ["-p", "8", "-n", "2", "-l", "16"],
        heap_bytes=4 * 1024 * 1024, note="tiny",
    ),
    "stencil": Figure6Workload(
        "stencil", ["-n", "256", "-i", "1"],
        heap_bytes=4 * 1024 * 1024, note="tiny",
    ),
}


def record(app, backend, opt, wall, steps=1000, timed_wall=None):
    timed_wall = wall if timed_wall is None else timed_wall
    return BenchRecord(
        app=app, backend=backend, opt_level=opt, instances=2,
        thread_limit=32, steps=steps, wall_s=wall,
        steps_per_sec=steps / wall, cycles=500.0, timed_wall_s=timed_wall,
        cycles_per_sec=500.0 / timed_wall,
        timed_over_untimed=timed_wall / wall,
    )


def report_with(pairs):
    """pairs: {(app, opt): (interp_wall, compiled_wall)}"""
    rep = BenchReport(schema=1, config={})
    for (app, opt), (wi, wc) in pairs.items():
        rep.records.append(record(app, "interp", opt, wi))
        rep.records.append(record(app, "compiled", opt, wc))
    return rep


class TestReport:
    def test_speedup_is_ratio_of_summed_walls(self):
        rep = report_with({
            ("a", 2): (2.0, 1.0),
            ("b", 2): (4.0, 1.0),
        })
        assert rep.speedup(2) == pytest.approx(3.0)
        assert rep.speedup(2, apps=["a"]) == pytest.approx(2.0)
        assert rep.wall("interp", 2) == pytest.approx(6.0)

    def test_summary_keys(self):
        rep = report_with({("a", 1): (2.0, 1.0), ("a", 2): (3.0, 1.0)})
        s = rep.summary()
        assert s["speedup"] == {"O1": 2.0, "O2": 3.0}
        assert s["smoke_wall_s"]["compiled"]["O2"] == 1.0

    def test_json_round_trip(self):
        rep = report_with({("a", 2): (2.0, 1.0)})
        rep.compile_wall_s = {"cold": 1.0, "warm": 0.01, "warm_over_cold": 0.01}
        clone = BenchReport.from_json(json.loads(json.dumps(rep.to_json())))
        assert clone.records == rep.records
        assert clone.compile_wall_s == rep.compile_wall_s
        assert clone.summary() == rep.summary()

    def test_pre_cache_baseline_still_parses(self):
        """Baselines written before compile_wall_s existed load with an
        empty dict and pass the gate vacuously."""
        rep = report_with({("a", 2): (2.0, 1.0)})
        data = rep.to_json()
        del data["compile_wall_s"]
        clone = BenchReport.from_json(json.loads(json.dumps(data)))
        assert clone.compile_wall_s == {}
        assert check_regression(clone, clone) == []


class TestRegressionGate:
    def test_clean_pass(self):
        base = report_with({("a", 2): (2.0, 1.0)})
        cur = report_with({("a", 2): (4.0, 2.0)})  # same ratio, other machine
        assert check_regression(cur, base) == []

    def test_speedup_regression_fails(self):
        base = report_with({("a", 2): (2.0, 1.0)})  # 2.0x
        cur = report_with({("a", 2): (2.0, 1.2)})  # 1.67x < 2.0x - 10%
        problems = check_regression(cur, base)
        assert len(problems) == 1
        assert "regressed" in problems[0]

    def test_small_noise_within_tolerance_passes(self):
        base = report_with({("a", 2): (2.0, 1.0)})  # 2.0x
        cur = report_with({("a", 2): (1.9, 1.0)})  # 1.9x >= 2.0x - 10%
        assert check_regression(cur, base) == []

    def test_compiled_slower_than_interp_fails(self):
        base = report_with({("a", 2): (1.0, 1.1)})
        cur = report_with({("a", 2): (1.0, 1.1)})
        problems = check_regression(cur, base)
        assert any("slower than the interpreter" in p for p in problems)

    def test_gate_restricted_to_common_pairs(self):
        """A --quick run (one app) gates against the matching slice of the
        full baseline, not its aggregate."""
        base = report_with({
            ("a", 2): (2.0, 1.0),   # 2.0x
            ("b", 2): (10.0, 1.0),  # 10x, drags the full aggregate up
        })
        cur = report_with({("a", 2): (2.0, 1.0)})
        assert check_regression(cur, base) == []

    def test_warm_compile_must_stay_under_fifth_of_cold(self):
        base = report_with({("a", 2): (2.0, 1.0)})
        cur = report_with({("a", 2): (2.0, 1.0)})
        cur.compile_wall_s = {"cold": 1.0, "warm": 0.5, "warm_over_cold": 0.5}
        problems = check_regression(cur, base)
        assert any("warm compile wall" in p for p in problems)
        cur.compile_wall_s = {"cold": 1.0, "warm": 0.05, "warm_over_cold": 0.05}
        assert check_regression(cur, base) == []

    def test_disjoint_reports_are_an_error(self):
        base = report_with({("a", 2): (2.0, 1.0)})
        cur = report_with({("b", 2): (2.0, 1.0)})
        assert check_regression(cur, base) == [
            "no (app, opt_level) pairs in common with the baseline"
        ]

    def test_unchecked_slower_than_checked_fails(self):
        base = report_with({("a", 2): (2.0, 1.0)})
        cur = report_with({("a", 2): (2.0, 1.0)})
        cur.safety = {
            "a": {
                "checked_wall_s": 1.0,
                "unchecked_wall_s": 1.2,
                "unchecked_speedup": 0.833,
            }
        }
        problems = check_regression(cur, base)
        assert any("unchecked" in p for p in problems)
        cur.safety["a"].update(unchecked_wall_s=0.8, unchecked_speedup=1.25)
        assert check_regression(cur, base) == []


    def test_timed_over_untimed_gate_on_compiled_aggregate(self):
        base = report_with({("a", 2): (2.0, 1.0)})
        cur = BenchReport(schema=3, config={})
        cur.records = [
            record("a", "interp", 2, 2.0, timed_wall=8.0),  # not gated
            record("a", "compiled", 2, 1.0, timed_wall=1.4),
            record("b", "interp", 2, 2.0),
            record("b", "compiled", 2, 1.0, timed_wall=1.5),
        ]
        assert cur.timed_over_untimed("compiled") == pytest.approx(1.45)
        assert cur.summary()["timed_over_untimed"]["interp"] == 2.5
        assert check_regression(cur, base) == []
        cur.records[1] = record("a", "compiled", 2, 1.0, timed_wall=1.7)
        problems = check_regression(cur, base)
        assert any("timed runs take 1.60x" in p for p in problems)


class TestRealRun:
    def test_cold_compile_runs_the_analyzer_after_a_warm_memo(self, monkeypatch):
        """A loader has already certified the app's kernels in this
        process; the bench's "cold" build must analyze them again, as a
        new process would, instead of reading the certificate memo."""
        loader = Loader(APPS["stream"].build_program(), GPUDevice(SMALL_DEVICE))
        analyzed = []
        run = safety._KernelAnalyzer.run

        def counted(self):
            analyzed.append(self.kern.name)
            return run(self)

        monkeypatch.setattr(safety._KernelAnalyzer, "run", counted)
        measure_compile_walls(("stream",), (1,))
        kernels = sorted(fn.name for fn in loader.module.kernels())
        assert len(kernels) == 2 and sorted(analyzed) == kernels

    def test_tiny_bench_produces_both_backends(self):
        rep = run_bench(
            apps=("rsbench",), opt_levels=(2,), instances=2,
            thread_limit=32, repeats=1, workloads=TINY,
        )
        assert {(r.app, r.backend) for r in rep.records} == {
            ("rsbench", "interp"), ("rsbench", "compiled"),
        }
        for r in rep.records:
            assert r.steps > 0 and r.wall_s > 0 and r.steps_per_sec > 0
            assert r.cycles > 0 and r.cycles_per_sec > 0
            assert r.timed_wall_s > 0
            assert r.timed_over_untimed == pytest.approx(
                r.timed_wall_s / r.wall_s, abs=2e-3
            )
        interp, compiled = rep.records
        assert interp.steps == compiled.steps  # same retired stream
        assert rep.speedup(2) > 0
        cw = rep.compile_wall_s
        assert cw["cold"] > 0
        assert cw["warm"] < 0.20 * cw["cold"]
        safety = rep.safety["rsbench"]
        assert safety["checked_wall_s"] > 0
        assert safety["unchecked_wall_s"] > 0
        assert safety["unchecked_speedup"] > 0
        assert rep.summary()["unchecked_speedup"]["rsbench"] == \
            safety["unchecked_speedup"]

    def test_no_unchecked_hatch_skips_the_comparison(self):
        rep = run_bench(
            apps=("rsbench",), opt_levels=(2,), instances=2,
            thread_limit=32, repeats=1, workloads=TINY,
            safety_mode="checked",
        )
        assert rep.safety == {}
        assert rep.config["safety_mode"] == "checked"

    def test_committed_baseline_is_valid_and_fast_enough(self):
        """The checked-in BENCH_interpreter.json parses, covers both
        backends on the full smoke campaign, and records the compiled
        backend at >= 2x interpreter steps/sec at -O2."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "BENCH_interpreter.json"
        rep = BenchReport.from_json(json.loads(path.read_text()))
        backends = {r.backend for r in rep.records}
        assert backends == {"interp", "compiled"}
        assert {r.opt_level for r in rep.records} == {1, 2}
        assert rep.speedup(2) >= 2.0
        speedups = [s["unchecked_speedup"] for s in rep.safety.values()]
        assert speedups and max(speedups) >= 1.10
        assert check_regression(rep, rep) == []
