"""Process-wide metrics registry: counters, gauges, and observations.

The registry is deliberately tiny — plain dicts behind one lock.  A
single pipeline run owns its registry, but the serve daemon mutates one
registry from many threads at once, so every read-modify-write is
atomic: concurrent ``incr``/``observe`` calls never lose updates.
Three instrument kinds cover everything the pipeline needs:

* **counters** — monotonically increasing event counts
  (``dse.cache.memory_hits``, ``blaze.retries``);
* **gauges** — last-write-wins values (``dse.space_size``);
* **observations** — value streams summarized as
  ``count/sum/min/max`` (``hls.estimate.minutes``).
"""

from __future__ import annotations

import threading


class MetricsRegistry:
    """Named counters, gauges, and observation summaries (thread-safe)."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.observations: dict[str, dict] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def incr(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the ``count/sum/min/max`` summary."""
        with self._lock:
            summary = self.observations.get(name)
            if summary is None:
                self.observations[name] = {
                    "count": 1, "sum": value, "min": value, "max": value}
                return
            summary["count"] += 1
            summary["sum"] += value
            summary["min"] = min(summary["min"], value)
            summary["max"] = max(summary["max"], value)

    # ------------------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self.counters.get(name, 0)

    def counter_ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` read atomically (0.0 when the
        denominator is 0).

        Rate-style derived metrics (``dse.surrogate.pruned`` over
        ``dse.surrogate.scored``, hits over probes) need both counters
        from the same instant; two separate :meth:`counter` calls can
        interleave with a concurrent ``incr`` and report a ratio > 1.
        """
        with self._lock:
            bottom = self.counters.get(denominator, 0)
            if not bottom:
                return 0.0
            return self.counters.get(numerator, 0) / bottom

    def snapshot(self) -> dict:
        """JSON-serializable, self-consistent view of every instrument."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "observations": {k: dict(v)
                                 for k, v in self.observations.items()},
            }


class NullMetrics(MetricsRegistry):
    """No-op registry handed out by :class:`~repro.obs.span.NullTracer`.

    Every mutator is a ``pass`` so disabled-tracing call sites pay one
    method call and nothing else.
    """

    def incr(self, name: str, amount: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


#: Shared inert registry (safe because all mutators are no-ops).
NULL_METRICS = NullMetrics()
