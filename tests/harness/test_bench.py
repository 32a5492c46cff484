"""The gate harness: the paired-measurement core, report shape, aggregate
ratios, JSON round-trip, and the machine-independent regression gate."""

import json

import pytest

from repro.analysis import safety
from repro.apps.registry import APPS
from repro.compilecache import cache as cache_module
from repro.gpu.device import GPUDevice
from repro.harness import bench
from repro.harness.bench import (
    QUICK_APPS,
    QUICK_SERVE_CAMPAIGNS,
    SCHEMA,
    BenchRecord,
    BenchReport,
    check_regression,
    interleave,
    measure_compile_walls,
    paired_ratio,
    run_bench,
)
from repro.harness.figure6 import Figure6Workload
from repro.host import loader as loader_module
from repro.host.loader import Loader
from repro.runtime.kernel import ENSEMBLE_KERNEL
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


def record(
    app, backend, opt, wall, steps=1000, timed_wall=None, repeats=None,
    timed_repeats=None,
):
    timed_wall = wall if timed_wall is None else timed_wall
    repeats = [wall] if repeats is None else list(repeats)
    if timed_repeats is None:
        timed_repeats = [timed_wall] * len(repeats)
    return BenchRecord(
        app=app, backend=backend, opt_level=opt, instances=2,
        thread_limit=32, steps=steps, wall_s=wall,
        steps_per_sec=steps / wall, cycles=500.0, timed_wall_s=timed_wall,
        cycles_per_sec=500.0 / timed_wall,
        timed_over_untimed=timed_wall / wall,
        repeat_walls_s=repeats,
        repeat_timed_walls_s=list(timed_repeats),
    )


def serve(direct=(1.0, 1.0, 1.0), served=(0.7, 0.7, 0.7), occupancy=1.0):
    """A served leg whose sides ran the given per-round walls."""
    return {
        "campaigns": 6,
        "repeat_direct_walls_s": list(direct),
        "repeat_served_walls_s": list(served),
        "occupancy": {"pool0": occupancy, "pool1": occupancy},
    }


def safety_leg(checked, unchecked):
    return {
        "checked_wall_s": min(checked),
        "unchecked_wall_s": min(unchecked),
        "unchecked_speedup": round(1 / paired_ratio([(checked, unchecked)]), 3),
        "repeat_checked_walls_s": list(checked),
        "repeat_unchecked_walls_s": list(unchecked),
    }


def report_with(pairs, **serve_leg):
    """pairs: {(app, opt): (interp_wall, compiled_wall)}; ``serve_leg``
    goes to :func:`serve`."""
    rep = BenchReport(
        config={},
        compile_wall_s={"cold": 1.0, "warm": 0.01, "warm_over_cold": 0.01},
        serve=serve(**serve_leg),
    )
    for (app, opt), (wi, wc) in pairs.items():
        rep.records.append(record(app, "interp", opt, wi))
        rep.records.append(record(app, "compiled", opt, wc))
    return rep


class TestCore:
    def test_rounds_alternate_which_side_runs_first(self):
        ran = []

        def side(name):
            def once():
                ran.append(name)
                return 1.0

            return once

        walls = interleave({"a": side("a"), "b": side("b")}, 4)
        assert ran == ["a", "b"] + ["a", "b", "b", "a"] * 2  # warm-up first
        assert walls == {"a": [1.0] * 4, "b": [1.0] * 4}

    @pytest.mark.parametrize(
        "ref, other, ratio",
        [
            # pair ratios 0.5, 0.8, 2.0: the median is the middle pair's
            pytest.param([2.0, 1.0, 1.0], [1.0, 0.8, 2.0], 0.8,
                         id="median-of-pairs"),
            pytest.param([1.0, 1.0], [0.6, 0.8], 0.7, id="even-repeats"),
            pytest.param([1.0, 1.0, 1.0], [0.7, 0.7, 5.0], 0.7,
                         id="outlier-pair"),
        ],
    )
    def test_median_pair_ratio(self, ref, other, ratio):
        """Every leg reads its pairs through the one helper: the served
        leg's overhead and a record's timed/untimed alike."""
        assert paired_ratio([(ref, other)]) == pytest.approx(ratio)
        assert report_with({}, direct=ref, served=other).overhead() == \
            pytest.approx(ratio)
        rep = BenchReport(config={})
        rep.records = [record("a", "compiled", 2, min(ref), repeats=ref,
                              timed_repeats=other)]
        assert rep.timed_over_untimed("compiled") == pytest.approx(ratio)

    def test_items_weighted_by_best_reference_wall(self):
        items = [([1.0, 2.0], [2.0, 4.0]), ([3.0, 3.0], [3.0, 3.0])]
        assert paired_ratio(items) == pytest.approx((1.0 * 2.0 + 3.0) / 4.0)
        assert paired_ratio([]) == 0.0


class TestReport:
    def test_speedup_is_ratio_of_summed_walls(self):
        rep = report_with({
            ("a", 2): (2.0, 1.0),
            ("b", 2): (4.0, 1.0),
        })
        assert rep.speedup(2) == pytest.approx(3.0)
        assert rep.speedup(2, apps=["a"]) == pytest.approx(2.0)
        assert rep.wall("interp", 2) == pytest.approx(6.0)

    def test_speedup_is_the_median_pair_ratio(self):
        """One repeat that a loaded host slowed for one backend only moves
        a ratio of best walls, not the median of the pairs' ratios."""
        rep = BenchReport(config={})
        rep.records = [
            record("a", "interp", 2, 2.0, repeats=[2.0, 3.0, 2.2]),
            record("a", "compiled", 2, 0.5, repeats=[1.0, 0.5, 1.1]),
        ]
        # pair ratios 2.0, 6.0, 2.0; the best walls' ratio would read 4.0
        assert rep.speedup(2, apps=["a"]) == pytest.approx(2.0)
        assert rep.speedup(2) == pytest.approx(2.0)

    def test_aggregate_weights_pair_speedups_by_interp_wall(self):
        rep = report_with({})
        rep.records = [
            record("a", "interp", 2, 2.0, repeats=[2.0, 2.0]),
            record("a", "compiled", 2, 1.0, repeats=[1.0, 1.0]),  # 2x
            record("b", "interp", 2, 6.0, repeats=[6.0, 6.0]),
            record("b", "compiled", 2, 2.0, repeats=[2.0, 2.0]),  # 3x
        ]
        assert rep.speedup(2) == pytest.approx(8.0 / 3.0)
        clone = BenchReport.from_json(json.loads(json.dumps(rep.to_json())))
        assert clone.records == rep.records

    def test_summary_keys(self):
        rep = report_with({("a", 1): (2.0, 1.0), ("a", 2): (3.0, 1.0)})
        s = rep.summary()
        assert s["speedup"] == {"O1": 2.0, "O2": 3.0}
        assert s["smoke_wall_s"]["compiled"]["O2"] == 1.0
        assert s["serve"] == {
            "wall_s": {"direct": 1.0, "served": 0.7},
            "overhead": 0.7,
            "mean_occupancy": 1.0,
        }

    def test_json_round_trip(self):
        rep = report_with(
            {("a", 2): (2.0, 1.0)}, direct=[2.0, 1.0, 1.0], served=[1.0, 0.8, 2.0]
        )
        rep.safety = {"a": safety_leg([1.0, 1.1], [0.8, 0.9])}
        clone = BenchReport.from_json(json.loads(json.dumps(rep.to_json())))
        assert clone == rep
        assert clone.summary() == rep.summary()
        assert clone.summary()["serve"]["overhead"] == 0.8

    def test_json_round_trip_keeps_the_serve_pairs(self):
        rep = report_with(
            {("a", 2): (2.0, 1.0)}, direct=[2.0, 1.0, 1.0], served=[1.0, 0.8, 2.0]
        )
        clone = BenchReport.from_json(json.loads(json.dumps(rep.to_json())))
        assert clone.serve["repeat_served_walls_s"] == [1.0, 0.8, 2.0]
        assert clone.overhead() == rep.overhead() == 0.8

    @pytest.mark.parametrize("schema", [SCHEMA - 1, 2, None])
    def test_other_schema_refused(self, schema):
        """A baseline from another schema is re-recorded, not read through
        fallbacks for the fields it lacks."""
        data = report_with({("a", 2): (2.0, 1.0)}).to_json()
        data["schema"] = schema
        with pytest.raises(ValueError, match="schema mismatch"):
            BenchReport.from_json(json.loads(json.dumps(data)))


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

    def test_warm_compile_just_over_a_fifth_of_cold_is_the_one_failure(self):
        """Every other gate of the report, the served leg's among them,
        passes: the warm compile wall alone is reported."""
        base = report_with({("a", 2): (2.0, 1.0)})
        cur = report_with({("a", 2): (2.0, 1.0)})
        cur.compile_wall_s = {"cold": 1.0, "warm": 0.25, "warm_over_cold": 0.25}
        (failure,) = check_regression(cur, base)
        assert "warm compile wall" in failure

    def test_disjoint_reports_are_an_error(self):
        base = report_with({("a", 2): (2.0, 1.0)})
        cur = report_with({("b", 2): (2.0, 1.0)})
        assert check_regression(cur, base) == [
            "no (app, opt_level) pairs in common with the baseline"
        ]

    def test_unchecked_slower_than_checked_fails(self):
        base = report_with({("a", 2): (2.0, 1.0)})
        cur = report_with({("a", 2): (2.0, 1.0)})
        cur.safety = {"a": safety_leg([1.0], [1.2])}
        problems = check_regression(cur, base)
        assert any("unchecked" in p for p in problems)
        cur.safety = {"a": safety_leg([1.0], [0.8])}
        assert check_regression(cur, base) == []

    def test_unchecked_over_checked_is_the_median_pair_ratio(self):
        """A pair whose unchecked run caught a quiet moment moves a ratio
        of best walls, not the median of each pair's own ratio."""
        base = report_with({("a", 2): (2.0, 1.0)})
        cur = report_with({("a", 2): (2.0, 1.0)})
        cur.safety = {
            "a": safety_leg([1.0, 1.1, 1.2], [1.2, 0.5, 1.32]),
            "b": safety_leg([3.0], [3.0]),
        }
        # pair ratios 1.2, 0.45, 1.1: median 1.1; the best walls read 0.5
        assert cur.unchecked_over_checked() == pytest.approx(
            (1.0 * 1.1 + 3.0 * 1.0) / 4.0
        )
        problems = check_regression(cur, base)
        assert any("unchecked compiled backend is slower" in p for p in problems)
        cur.safety["a"]["repeat_unchecked_walls_s"] = [0.9, 0.5, 1.32]
        assert not any("unchecked" in p for p in check_regression(cur, base))

    def test_timed_over_untimed_gate_on_compiled_aggregate(self):
        base = report_with({("a", 2): (2.0, 1.0)})
        cur = report_with({})
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

    def test_timed_over_untimed_is_the_median_repeat_ratio(self):
        """A repeat whose untimed run caught a quiet moment and whose timed
        run did not moves a ratio of best walls, not the median of each
        repeat's own timed/untimed ratio."""
        base = report_with({("a", 2): (2.0, 1.0)})
        cur = report_with({})
        cur.records = [
            record("a", "interp", 2, 2.0),
            record(
                "a", "compiled", 2, 0.6, timed_wall=1.2,
                repeats=[1.0, 0.6, 1.0], timed_repeats=[1.3, 1.5, 1.2],
            ),
        ]
        # repeat ratios 1.3, 2.5, 1.2; the best walls' ratio would read 2.0
        assert cur.timed_over_untimed("compiled") == pytest.approx(1.3)
        assert not any("timed runs" in p for p in check_regression(cur, base))

    @pytest.mark.parametrize(
        "serve_leg, failure",
        [
            pytest.param({}, None, id="same-numbers"),
            # limit 0.7 * (1 + 2 * 10%) = 0.84
            pytest.param({"served": [0.83] * 3}, None,
                         id="overhead-within-limit"),
            pytest.param({"served": [0.9] * 3}, "0.840",
                         id="overhead-beyond-limit"),
            # best walls 0.5 / 1.0 would pass; two of three pairs read 0.9
            pytest.param({"direct": [1.0, 1.0, 0.5], "served": [0.9] * 3},
                         "serve overhead regressed",
                         id="median-not-best"),
            pytest.param({"occupancy": 0.85}, "occupancy regressed",
                         id="occupancy-drop"),
        ],
    )
    def test_serve_gates(self, serve_leg, failure):
        base = report_with({("a", 2): (2.0, 1.0)})
        cur = report_with({("a", 2): (2.0, 1.0)}, **serve_leg)
        problems = check_regression(cur, base)
        if failure is None:
            assert problems == []
        else:
            (problem,) = problems
            assert failure in problem


class TestCli:
    def test_quick_runs_at_least_three_odd_rounds(self, monkeypatch, capsys):
        """``--quick`` shrinks the apps and the campaigns, not the rounds:
        no gate's median may be a single pair's ratio."""
        asked = {}

        def fake_run_bench(**kw):
            asked.update(kw)
            return report_with({("rsbench", 2): (2.0, 1.0)})

        monkeypatch.setattr(bench, "run_bench", fake_run_bench)
        assert bench.main(["--quick"]) == 0
        assert asked["apps"] == QUICK_APPS and asked["opt_levels"] == (2,)
        assert asked["campaigns"] == QUICK_SERVE_CAMPAIGNS
        assert asked["repeats"] >= 3 and asked["repeats"] % 2 == 1


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
        kernels = [fn.name for fn in loader.module.kernels()]
        assert kernels == [ENSEMBLE_KERNEL] and analyzed == kernels

    def test_direct_twin_compiles_once(self, monkeypatch):
        """The served leg's in-process twin shares one executable cache
        across its two devices, as the server does, so the served/direct
        ratio does not count a compile the server never pays."""
        builds = []
        for module in (cache_module, loader_module):
            real = module.build_executable

            def counted(*args, real=real, **kw):
                builds.append(1)
                return real(*args, **kw)

            monkeypatch.setattr(module, "build_executable", counted)
        _, occupancy, observables = bench._run_direct(3)
        assert len(observables) == 3
        assert sorted(occupancy) == ["pool0", "pool1"]
        assert all(occupancy.values())  # both devices ran campaigns
        assert len(builds) == 1

    def test_tiny_bench_produces_both_backends(self):
        rep = run_bench(
            apps=("rsbench",), opt_levels=(2,), instances=2,
            thread_limit=32, repeats=1, workloads=TINY, campaigns=1,
        )
        assert {(r.app, r.backend) for r in rep.records} == {
            ("rsbench", "interp"), ("rsbench", "compiled"),
        }
        for r in rep.records:
            assert r.steps > 0 and r.wall_s > 0 and r.steps_per_sec > 0
            assert r.cycles > 0 and r.cycles_per_sec > 0
            assert r.timed_wall_s > 0
            assert r.timed_wall_s == min(r.repeat_timed_walls_s)
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
        assert safety["checked_wall_s"] == min(safety["repeat_checked_walls_s"])
        assert safety["unchecked_wall_s"] == min(safety["repeat_unchecked_walls_s"])
        assert safety["unchecked_wall_s"] > 0
        assert safety["unchecked_speedup"] > 0
        assert rep.summary()["unchecked_speedup"]["rsbench"] == \
            safety["unchecked_speedup"]
        assert rep.serve["campaigns"] == 1
        assert len(rep.serve["repeat_served_walls_s"]) == 1
        assert rep.overhead() > 0 and 0 < rep.mean_occupancy() <= 1

    def test_no_unchecked_hatch_skips_the_comparison(self):
        rep = run_bench(
            apps=("rsbench",), opt_levels=(2,), instances=2,
            thread_limit=32, repeats=1, workloads=TINY,
            safety_mode="checked", campaigns=1,
        )
        assert rep.safety == {}
        assert rep.config["safety_mode"] == "checked"

    def test_committed_baseline_is_valid_and_fast_enough(self):
        """The checked-in BENCH_interpreter.json parses, covers both
        backends on the full smoke campaign, records the compiled
        backend at >= 2x interpreter steps/sec at -O2, and its served
        leg pays for the serve layer rather than for a compile the
        server shares."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "BENCH_interpreter.json"
        rep = BenchReport.from_json(json.loads(path.read_text()))
        backends = {r.backend for r in rep.records}
        assert backends == {"interp", "compiled"}
        assert {r.opt_level for r in rep.records} == {1, 2}
        assert rep.speedup(2) >= 2.0
        speedups = [s["unchecked_speedup"] for s in rep.safety.values()]
        assert speedups and max(speedups) >= 1.10
        assert rep.overhead() >= 0.9
        assert check_regression(rep, rep) == []
