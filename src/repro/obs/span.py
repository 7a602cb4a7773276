"""Hierarchical span tracing.

A :class:`Span` is one timed stage of the pipeline; spans nest, forming
a forest per :class:`Tracer`.  Call sites open spans as context
managers::

    with tracer.span("dse.batch", round=3) as span:
        ...
        span.set(proposals=len(batch))
        span.add("cache_hits")

Timing uses ``time.perf_counter`` relative to the tracer's epoch, so
span starts are comparable within one tracer.  Virtual-clock durations
(the DSE and Blaze runtime both run on deterministic virtual clocks)
ride along as ordinary attributes (``vclock_seconds`` /
``vclock_minutes``) set by the instrumented layers.

When tracing is disabled every instrumented call site receives
:data:`NULL_TRACER`, whose ``span()`` hands back one shared inert
handle — no allocation, no timestamping, no branching at the call site.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from .metrics import NULL_METRICS, MetricsRegistry


@dataclass
class Span:
    """One timed, attributed stage; children are fully contained."""

    name: str
    start: float                     # seconds since the tracer epoch
    end: Optional[float] = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Wall seconds between start and end (0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def self_duration(self) -> float:
        """Duration minus the time spent inside direct children."""
        return max(0.0, self.duration
                   - sum(child.duration for child in self.children))

    def set(self, **attrs) -> "Span":
        """Attach structured attributes; returns the span for chaining."""
        self.attrs.update(attrs)
        return self

    def add(self, name: str, amount: float = 1) -> "Span":
        """Increment a numeric attribute (a per-span counter)."""
        self.attrs[name] = self.attrs.get(name, 0) + amount
        return self

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


class _SpanHandle:
    """Context manager that opens one span on enter, closes on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = Span(name=self._name, start=tracer._now(),
                    attrs=self._attrs)
        stack = tracer._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            # The parent span is still open on *this* thread's stack, so
            # only this thread can be appending to its children.
            parent.children.append(span)
        else:
            with tracer._forest_lock:
                tracer.roots.append(span)
        stack.append(span)
        self._span = span
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.end = self._tracer._now()
        if exc_type is not None:
            span.attrs.setdefault("error",
                                  f"{exc_type.__name__}: {exc}")
        self._tracer._stack.pop()
        return False


class Tracer:
    """Recording tracer: a span forest plus a metrics registry.

    Safe to share across threads: each thread keeps its *own* open-span
    stack (spans opened on a thread nest under that thread's enclosing
    span, never under another thread's), and appends to the shared root
    forest are locked.  Single-threaded behaviour is unchanged.
    """

    enabled = True

    def __init__(self, *, clock: Optional[Callable[[], float]] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self._clock = clock or time.perf_counter
        self._epoch = self._clock()
        self.roots: list[Span] = []
        self._local = threading.local()
        self._forest_lock = threading.Lock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # ------------------------------------------------------------------

    @property
    def _stack(self) -> list:
        """This thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _now(self) -> float:
        return self._clock() - self._epoch

    def span(self, name: str, **attrs) -> _SpanHandle:
        """Open a child span of the innermost active span."""
        return _SpanHandle(self, name, attrs)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def iter_spans(self) -> Iterator[Span]:
        """Depth-first iteration over every recorded span."""
        for root in self.roots:
            yield from root.walk()


class _NullSpan:
    """Shared inert span handle: context manager and span in one."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        """No-op attribute setter (protocol parity with :class:`Span`)."""
        return self

    def add(self, name: str, amount: float = 1) -> "_NullSpan":
        """No-op counter (protocol parity with :class:`Span`)."""
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op returning shared
    inert objects, so instrumentation costs nothing when off."""

    enabled = False
    metrics = NULL_METRICS
    current = None

    def span(self, name: str, **attrs) -> _NullSpan:
        """Return the shared inert span handle."""
        return _NULL_SPAN

    @property
    def roots(self) -> list:
        """Always empty (a fresh list, so callers may not mutate it)."""
        return []

    def iter_spans(self) -> Iterator[Span]:
        """Empty iterator."""
        return iter(())


#: The default tracer at every instrumented call site.
NULL_TRACER = NullTracer()


def resolve_tracer(tracer: Optional[Any]) -> Any:
    """Normalize an optional ``tracer=`` argument (``None`` -> no-op)."""
    return NULL_TRACER if tracer is None else tracer
