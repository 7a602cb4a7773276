"""Span tracer core: nesting, attrs, null path."""

import pytest

from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    Span,
    Tracer,
)


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", k=1) as inner:
                inner.set(extra="v")
            outer.set(done=True)
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert root.attrs == {"done": True}
        assert [c.name for c in root.children] == ["inner"]
        assert root.children[0].attrs == {"k": 1, "extra": "v"}

    def test_durations_and_self_time(self):
        root = Span(name="r", start=0.0, end=10.0)
        root.children.append(Span(name="c", start=1.0, end=4.0))
        assert root.duration == 10.0
        assert root.self_duration == 7.0

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.roots[0].end is not None

    def test_add_counter_attr(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.add("retries")
            span.add("retries", 2)
        assert tracer.roots[0].attrs["retries"] == 3

    def test_walk_is_preorder(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        names = [s.name for s in tracer.roots[0].walk()]
        assert names == ["a", "b", "c"]

    def test_metrics_attached(self):
        tracer = Tracer()
        tracer.metrics.incr("hits")
        tracer.metrics.incr("hits", 2)
        tracer.metrics.gauge("rate", 0.5)
        tracer.metrics.observe("ms", 1.0)
        tracer.metrics.observe("ms", 3.0)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["rate"] == 0.5
        assert snap["observations"]["ms"]["count"] == 2


class TestNullTracer:
    def test_is_disabled_and_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", k=1) as span:
            span.set(a=2)
            span.add("n")
        assert NULL_TRACER.roots == []

    def test_span_object_is_shared(self):
        # The disabled path must not allocate per call.
        with NULL_TRACER.span("a") as first:
            pass
        with NULL_TRACER.span("b") as second:
            pass
        assert first is second

    def test_null_metrics_is_inert(self):
        NULL_METRICS.incr("x")
        NULL_METRICS.gauge("y", 1.0)
        NULL_METRICS.observe("z", 2.0)
        assert NULL_METRICS.snapshot() == {
            "counters": {}, "gauges": {}, "observations": {}}

    def test_null_overhead_is_tiny(self):
        # Structural no-op plus a very generous absolute wall budget:
        # 50k disabled spans must not take anywhere near real time.
        import time

        start = time.perf_counter()
        for _ in range(50_000):
            with NULL_TRACER.span("hot", i=1) as span:
                span.set(a=2)
        assert time.perf_counter() - start < 1.0


class TestMetricsRegistry:
    def test_counter_ratio(self):
        registry = MetricsRegistry()
        assert registry.counter_ratio("hits", "probes") == 0.0
        registry.incr("probes", 4)
        registry.incr("hits", 3)
        assert registry.counter_ratio("hits", "probes") == 0.75
        assert registry.counter_ratio("missing", "probes") == 0.0
