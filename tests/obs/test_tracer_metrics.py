"""Unit tests for the tracer and the metrics registry."""

import pytest

from repro.obs import (
    CLOCK_CYCLES,
    CLOCK_STEPS,
    CLOCK_WALL,
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Observability,
    Tracer,
)


class TestTracer:
    def test_wall_span_nesting_depths(self):
        t = Tracer()
        with t.span("outer", track="host"):
            with t.span("inner", track="host"):
                pass
        # inner closes first, so it is recorded first
        inner, outer = t.events
        assert inner.name == "inner" and inner.depth == 1
        assert outer.name == "outer" and outer.depth == 0
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_complete_records_simulated_clock(self):
        t = Tracer()
        rec = t.complete("launch", track="device:d0", start=100.0, end=350.0)
        assert rec.clock == CLOCK_CYCLES
        assert rec.duration == 250.0
        assert not rec.is_instant
        assert t.track_clock("device:d0") == CLOCK_CYCLES

    def test_complete_rejects_negative_duration(self):
        t = Tracer()
        with pytest.raises(ValueError, match="ends before"):
            t.complete("bad", track="x", start=10.0, end=5.0)

    def test_instant_defaults_to_wall_now(self):
        t = Tracer()
        rec = t.instant("tick", track="scheduler")
        assert rec.is_instant
        assert rec.clock == CLOCK_WALL

    def test_track_refuses_mixed_clock_domains(self):
        t = Tracer()
        t.complete("a", track="d", start=0, end=1, clock=CLOCK_CYCLES)
        with pytest.raises(ValueError, match="mix"):
            t.complete("b", track="d", start=0, end=1, clock=CLOCK_STEPS)

    def test_tracks_and_events_on(self):
        t = Tracer()
        t.instant("x", track="a")
        t.instant("y", track="b")
        t.instant("z", track="a")
        assert t.tracks == ["a", "b"]
        assert [e.name for e in t.events_on("a")] == ["x", "z"]

    def test_clear_resets_everything(self):
        t = Tracer()
        t.complete("a", track="d", start=0, end=1)
        t.clear()
        assert t.events == [] and t.tracks == []
        # the clock claim is gone too: steps are fine now
        t.complete("b", track="d", start=0, end=1, clock=CLOCK_STEPS)


class TestNullTracer:
    def test_records_nothing(self):
        t = NullTracer()
        with t.span("s", track="host"):
            pass
        t.complete("c", track="d", start=0, end=1)
        t.instant("i", track="d")
        assert t.events == []
        assert not t.enabled

    def test_shared_singleton_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)


class TestMetricsRegistry:
    def test_counter_get_or_create_and_inc(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2)
        assert reg.value("hits") == 3.0

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="decrease"):
            reg.counter("hits").inc(-1)

    def test_label_sets_are_independent_series(self):
        reg = MetricsRegistry()
        reg.counter("rpc.calls", service="printf").inc(5)
        reg.counter("rpc.calls", service="puts").inc(1)
        assert reg.value("rpc.calls", service="printf") == 5.0
        assert reg.value("rpc.calls", service="puts") == 1.0
        assert len(reg.series("rpc.calls")) == 2

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7)
        g.add(-2)
        assert reg.value("depth") == 5.0

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("chunk.size")
        for v in (4, 2, 8):
            h.observe(v)
        assert h.count == 3
        assert h.min == 2 and h.max == 8
        assert h.mean == pytest.approx(14 / 3)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_is_json_friendly(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c", dev="d0").inc()
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        kinds = {rec["name"]: rec["kind"] for rec in snap}
        assert kinds == {"c": "counter", "h": "histogram"}

    def test_value_returns_default_when_absent(self):
        assert MetricsRegistry().value("nope", 42.0) == 42.0


class TestObservabilityBundle:
    def test_default_is_inert(self):
        obs = Observability()
        assert not obs.tracing
        assert isinstance(obs.metrics, MetricsRegistry)

    def test_enabled_records(self):
        obs = Observability.enabled()
        assert obs.tracing
        obs.tracer.instant("x", track="t")
        assert len(obs.tracer.events) == 1

    def test_fresh_bundles_do_not_share_registries(self):
        a, b = Observability(), Observability()
        a.metrics.counter("x").inc()
        assert b.metrics.value("x") == 0.0
