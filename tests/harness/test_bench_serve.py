"""The serve-path benchmark's report arithmetic and regression gate, on
synthetic reports (no campaign runs)."""

import pytest

from repro.harness import bench_serve
from repro.harness.bench_serve import (
    QUICK_CAMPAIGNS,
    SCHEMA,
    ServeBenchRecord,
    ServeBenchReport,
    check_regression,
)


def report(direct, served, occupancy=1.0, compile_wall_s=None):
    """A report whose paths ran the given per-repeat walls."""
    rep = ServeBenchReport(
        schema=SCHEMA, config={}, compile_wall_s=compile_wall_s or {}
    )
    for path, walls in (("direct", direct), ("served", served)):
        rep.records.append(
            ServeBenchRecord(
                path=path,
                campaigns=6,
                instances_total=12,
                devices=2,
                wall_s=min(walls),
                submissions_per_sec=6.0,
                instances_per_sec=12.0,
                occupancy={"pool0": occupancy, "pool1": occupancy},
                mean_occupancy=occupancy,
                repeat_walls_s=list(walls),
            )
        )
    return rep


class TestOverhead:
    def test_median_of_interleaved_pair_ratios(self):
        # pair ratios 0.5, 0.8, 2.0: the median is the middle pair's,
        # while the best walls (1.0 and 1.0) would read 1.0
        rep = report([2.0, 1.0, 1.0], [1.0, 0.8, 2.0])
        assert rep.overhead() == pytest.approx(0.8)

    def test_even_repeats_average_the_middle_pairs(self):
        assert report([1.0, 1.0], [0.6, 0.8]).overhead() == pytest.approx(0.7)

    def test_a_slow_outlier_repeat_does_not_move_it(self):
        steady = report([1.0, 1.0, 1.0], [0.7, 0.7, 0.7])
        noisy = report([1.0, 1.0, 1.0], [0.7, 0.7, 5.0])
        assert noisy.overhead() == steady.overhead() == pytest.approx(0.7)

    def test_no_direct_wall_reads_zero(self):
        assert report([0.0], [1.0]).overhead() == 0.0

    def test_json_round_trip_keeps_the_pairs(self):
        rep = report([2.0, 1.0, 1.0], [1.0, 0.8, 2.0])
        back = ServeBenchReport.from_json(rep.to_json())
        assert back.record("served").repeat_walls_s == [1.0, 0.8, 2.0]
        assert back.overhead() == rep.overhead()
        assert back.summary()["overhead"] == 0.8

    def test_older_schema_refused(self):
        text = report([1.0], [1.0]).to_json().replace(
            f'"schema": {SCHEMA}', '"schema": 1'
        )
        with pytest.raises(ValueError, match="schema mismatch"):
            ServeBenchReport.from_json(text)


class TestCheckRegression:
    BASE = report([1.0, 1.0, 1.0], [0.7, 0.7, 0.7])

    def test_same_numbers_pass(self):
        assert check_regression(self.BASE, self.BASE) == []

    def test_overhead_within_twice_the_tolerance_passes(self):
        # limit 0.7 * 1.2 = 0.84
        cur = report([1.0, 1.0, 1.0], [0.83, 0.83, 0.83])
        assert check_regression(cur, self.BASE) == []

    def test_overhead_beyond_twice_the_tolerance_fails(self):
        cur = report([1.0, 1.0, 1.0], [0.9, 0.9, 0.9])
        (failure,) = check_regression(cur, self.BASE)
        assert "serve overhead regressed" in failure and "0.840" in failure

    def test_gate_reads_the_median_pair_not_the_best_walls(self):
        # best walls 0.5 / 1.0 would pass; two of three pairs read 0.9
        cur = report([1.0, 1.0, 0.5], [0.9, 0.9, 0.9])
        assert len(check_regression(cur, self.BASE)) == 1

    def test_occupancy_drop_fails(self):
        cur = report([1.0] * 3, [0.7] * 3, occupancy=0.85)
        (failure,) = check_regression(cur, self.BASE)
        assert "occupancy regressed" in failure

    def test_warm_compile_must_stay_under_a_fifth_of_cold(self):
        slow = {"cold": 1.0, "warm": 0.25}
        cur = report([1.0] * 3, [0.7] * 3, compile_wall_s=slow)
        (failure,) = check_regression(cur, self.BASE)
        assert "warm compile wall" in failure


class TestCli:
    def test_quick_runs_at_least_three_pairs(self, monkeypatch, capsys):
        """``--quick`` shrinks the campaigns, not the pairs: the gate's
        median must not be a single pair's ratio."""
        asked = {}

        def fake_run_bench(campaigns, repeats):
            asked.update(campaigns=campaigns, repeats=repeats)
            return report([1.0] * repeats, [0.7] * repeats)

        monkeypatch.setattr(bench_serve, "run_bench", fake_run_bench)
        assert bench_serve.main(["--quick"]) == 0
        assert asked["campaigns"] == QUICK_CAMPAIGNS
        assert asked["repeats"] >= 3 and asked["repeats"] % 2 == 1
