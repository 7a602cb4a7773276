"""Multi-threaded hammer tests for the observability layer.

The serve daemon mutates one shared :class:`MetricsRegistry` and one
shared :class:`Tracer` from many threads at once; these tests prove no
increment, observation, or span is lost under contention.
"""

import threading

from repro.obs import MetricsRegistry, Tracer

THREADS = 8
ITERATIONS = 4000


def _run_threads(target, n=THREADS):
    threads = [threading.Thread(target=target, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestMetricsRegistryConcurrency:
    def test_no_lost_increments(self):
        registry = MetricsRegistry()

        def hammer(_):
            for _ in range(ITERATIONS):
                registry.incr("hits")
                registry.incr("bytes", 3)

        _run_threads(hammer)
        assert registry.counter("hits") == THREADS * ITERATIONS
        assert registry.counter("bytes") == 3 * THREADS * ITERATIONS

    def test_no_lost_observations(self):
        registry = MetricsRegistry()

        def hammer(i):
            for k in range(ITERATIONS):
                registry.observe("latency", i * ITERATIONS + k)

        _run_threads(hammer)
        summary = registry.observations["latency"]
        n = THREADS * ITERATIONS
        assert summary["count"] == n
        assert summary["sum"] == n * (n - 1) // 2
        assert summary["min"] == 0
        assert summary["max"] == n - 1

    def test_snapshot_under_write_load(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def writer(_):
            while not stop.is_set():
                registry.incr("ticks")

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                snap = registry.snapshot()
                assert set(snap) == {"counters", "gauges", "observations"}
        finally:
            stop.set()
            for t in threads:
                t.join()


class TestTracerConcurrency:
    def test_no_lost_spans(self):
        tracer = Tracer()
        per_thread = 500

        def hammer(i):
            for k in range(per_thread):
                with tracer.span("outer", thread=i):
                    with tracer.span("inner", k=k):
                        tracer.metrics.incr("spans")

        _run_threads(hammer)
        spans = list(tracer.iter_spans())
        assert len(spans) == 2 * THREADS * per_thread
        assert all(span.end is not None for span in spans)
        # Every thread's spans nest under its own roots: each root is an
        # "outer" with exactly one "inner" child.
        assert len(tracer.roots) == THREADS * per_thread
        for root in tracer.roots:
            assert root.name == "outer"
            assert [c.name for c in root.children] == ["inner"]
        assert tracer.metrics.counter("spans") == THREADS * per_thread

    def test_thread_stacks_are_independent(self):
        tracer = Tracer()
        seen = {}
        barrier = threading.Barrier(2)

        def worker(i):
            with tracer.span(f"w{i}"):
                barrier.wait()
                seen[i] = tracer.current.name
                barrier.wait()

        _run_threads(worker, n=2)
        assert seen == {0: "w0", 1: "w1"}
