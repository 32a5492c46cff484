"""Golden tests for the Chrome trace exporter and the metrics dumps.

The pinned shape: a traced two-device campaign must export trace JSON
that passes :func:`repro.obs.validate_chrome_trace` (required keys,
monotonic timestamps per track, balanced nesting) with the expected
tracks present, and the null tracer must add zero events while leaving
results untouched.
"""

import json

import pytest

from repro.host.launch import LaunchSpec
from repro.host.results import Observables
from repro.obs import (
    Observability,
    Tracer,
    chrome_trace,
    metrics_lines,
    validate_chrome_trace,
)
from repro.obs.export import CLOCK_PIDS
from repro.sched import DevicePool, Scheduler
from tests.util import SMALL_DEVICE

SMALL = ["-n", "256", "-d", "8", "-i", "1"]
HEAP = 1536 * 1024


def lines(n):
    return [SMALL + ["-s", str(s)] for s in range(1, n + 1)]


@pytest.fixture(scope="module")
def program():
    from repro.apps import pagerank

    return pagerank.build_program()


def run_campaign(program, obs):
    pool = DevicePool(2, config=SMALL_DEVICE)
    sched = Scheduler(pool, obs=obs)
    result = sched.run_campaign(
        program,
        LaunchSpec(lines(4), thread_limit=32),
        loader_opts={"heap_bytes": HEAP},
    )
    return sched, result


@pytest.fixture(scope="module")
def traced(program):
    obs = Observability.enabled()
    sched, result = run_campaign(program, obs)
    return obs, sched, result


class TestGoldenTrace:
    def test_trace_validates_clean(self, traced):
        obs, _, _ = traced
        data = chrome_trace(obs.tracer)
        assert validate_chrome_trace(data) == []

    def test_expected_tracks_present(self, traced):
        obs, _, _ = traced
        thread_names = set()
        for ev in chrome_trace(obs.tracer)["traceEvents"]:
            if ev["ph"] == "M" and ev["name"] == "thread_name":
                thread_names.add(ev["args"]["name"])
        assert "scheduler" in thread_names
        assert "compiler" in thread_names
        assert "rpc-host" in thread_names
        assert {"device:pool0", "device:pool1"} <= thread_names
        # per-team tracks for at least team 0 of each device
        assert any(n.endswith("/team0") for n in thread_names)

    def test_clock_domains_get_distinct_pids(self, traced):
        obs, _, _ = traced
        data = chrome_trace(obs.tracer)
        pids = {ev["pid"] for ev in data["traceEvents"]}
        # simulated cycles and host wall time are both present and split
        assert CLOCK_PIDS["cycles"] in pids
        assert CLOCK_PIDS["wall"] in pids

    def test_device_spans_carry_cycle_durations(self, traced):
        obs, sched, result = traced
        launches = [
            e
            for e in obs.tracer.events
            if e.track.startswith("device:") and not e.is_instant
        ]
        assert launches, "expected launch spans on the device tracks"
        assert all(e.clock == "cycles" for e in launches)
        assert sum(e.duration for e in launches) == pytest.approx(
            result.total_cycles
        )

    def test_trace_round_trips_through_json(self, traced, tmp_path):
        obs, _, _ = traced
        path = tmp_path / "trace.json"
        obs.write_trace(path)
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_check_cli_accepts_written_trace(self, traced, tmp_path):
        from repro.obs.check import main

        obs, _, _ = traced
        path = tmp_path / "trace.json"
        obs.write_trace(path)
        assert main([str(path)]) == 0

    def test_check_cli_rejects_garbage(self, tmp_path):
        from repro.obs.check import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"notTraceEvents": []}))
        assert main([str(path)]) == 1


class TestNullTracerIsInvisible:
    def test_adds_zero_events_and_identical_results(self, program, traced):
        _, _, traced_result = traced
        obs = Observability()  # inert: null tracer
        sched, result = run_campaign(program, obs)
        assert obs.tracer.events == []
        assert Observables.of(result) == Observables.of(traced_result)

    def test_metrics_still_collected_without_tracing(self, program):
        obs = Observability()
        run_campaign(program, obs)
        assert obs.metrics.value("sched.jobs.completed") == 1.0
        assert len(obs.metrics.series("device.launches")) == 2


class TestValidator:
    def test_flags_missing_required_keys(self):
        bad = {"traceEvents": [{"ph": "X", "ts": 0.0, "dur": 1.0}]}
        problems = validate_chrome_trace(bad)
        assert any("missing 'name'" in p for p in problems)

    def test_flags_backwards_timestamps(self):
        bad = {
            "traceEvents": [
                {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 10.0},
                {"ph": "i", "name": "b", "pid": 1, "tid": 1, "ts": 5.0},
            ]
        }
        assert any("backwards" in p for p in validate_chrome_trace(bad))

    def test_flags_overlapping_spans(self):
        bad = {
            "traceEvents": [
                {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 0.0, "dur": 10.0},
                {"ph": "X", "name": "b", "pid": 1, "tid": 1, "ts": 5.0, "dur": 10.0},
            ]
        }
        assert any("without nesting" in p for p in validate_chrome_trace(bad))

    def test_accepts_proper_nesting(self):
        good = {
            "traceEvents": [
                {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 0.0, "dur": 10.0},
                {"ph": "X", "name": "b", "pid": 1, "tid": 1, "ts": 2.0, "dur": 3.0},
            ]
        }
        assert validate_chrome_trace(good) == []


class TestMetricsDumps:
    def test_line_protocol_shape(self):
        obs = Observability()
        obs.metrics.counter("rpc.calls", service="printf").inc(3)
        obs.metrics.histogram("chunk.size").observe(4)
        text = metrics_lines(obs.metrics)
        assert "rpc.calls,service=printf value=3.0" in text
        assert "chunk.size count=1,sum=4.0,min=4.0,max=4.0" in text

    def test_write_metrics_formats(self, tmp_path):
        obs = Observability()
        obs.metrics.counter("x").inc()
        obs.write_metrics(tmp_path / "m.json")
        obs.write_metrics(tmp_path / "m.lines", format="lines")
        data = json.loads((tmp_path / "m.json").read_text())
        assert data["metrics"][0]["name"] == "x"
        assert (tmp_path / "m.lines").read_text() == "x value=1.0\n"

    def test_unknown_format_rejected(self, tmp_path):
        from repro.obs import write_metrics

        with pytest.raises(ValueError, match="format"):
            write_metrics(tmp_path / "m", Observability().metrics, format="xml")
