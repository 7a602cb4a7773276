"""Exploration trace tests, and the evaluator under an enabled tracer."""

import math

from repro.apps import get_app
from repro.dse import Evaluator, ExplorationTrace, TracePoint, build_space
from repro.obs import Tracer


def test_tracing_does_not_change_results():
    kmeans = get_app("KMeans").compile()
    default = build_space(kmeans).default_point()
    batch = [dict(default, **{"L0.parallel": p}) for p in (1, 2, 4, 1)]
    tracer = Tracer()
    plain = Evaluator(kmeans).evaluate_batch(batch)
    traced = Evaluator(kmeans, tracer=tracer).evaluate_batch(batch)
    assert [(e.qor, e.minutes, e.cached, e.result) for e in traced] \
        == [(e.qor, e.minutes, e.cached, e.result) for e in plain]
    # One span per fresh estimate, none for the in-run cache hit.
    assert [s.name for s in tracer.iter_spans()].count("hls.estimate") == 3


class TestExplorationTrace:
    def test_final_qor_skips_infeasible(self):
        trace = ExplorationTrace()
        trace.record(1.0, math.inf, 1)
        trace.record(2.0, 50.0, 2)
        trace.record(3.0, 40.0, 3)
        assert trace.final_qor == 40.0
        assert trace.end_minutes == 3.0

    def test_empty_trace(self):
        trace = ExplorationTrace()
        assert trace.final_qor == math.inf
        assert trace.end_minutes == 0.0

    def test_best_at_time_horizon(self):
        trace = ExplorationTrace()
        trace.record(10.0, 100.0, 1)
        trace.record(60.0, 20.0, 2)
        trace.record(120.0, 5.0, 3)
        assert trace.best_at(5.0) == math.inf
        assert trace.best_at(30.0) == 100.0
        assert trace.best_at(90.0) == 20.0
        assert trace.best_at(500.0) == 5.0

    def test_merge_is_monotone_best(self):
        a = ExplorationTrace()
        a.record(1.0, 100.0, 1)
        a.record(5.0, 10.0, 2)
        b = ExplorationTrace()
        b.record(2.0, 50.0, 1)
        b.record(6.0, 60.0, 2)  # worse, must not bump the curve back up
        merged = a.merged_with(b)
        values = [p.best_qor for p in merged.points]
        assert values == sorted(values, reverse=True)
        assert merged.points[-1].best_qor == 10.0

    def test_points_are_trace_points(self):
        trace = ExplorationTrace()
        trace.record(1.5, 9.0, 4)
        point = trace.points[0]
        assert isinstance(point, TracePoint)
        assert (point.minutes, point.best_qor, point.evaluations) \
            == (1.5, 9.0, 4)
