"""Statistics of the end-to-end benchmark (no ``repro`` imports).

Everything a metric is computed with lives here so the unit tests can
pin the arithmetic without running a workload: the tail-percentile
picker, the per-class geometric mean, the per-round throughput median,
the quietest-block selection, and the span self-time / unattributed
bookkeeping of the traced run.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Sequence

#: Tail candidates, lowest first.  The floor (p50) is always eligible.
PERCENTILES = (50, 75, 90, 95, 99)

#: A percentile is reportable only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: A run is cut into this many consecutive blocks of rounds and the
#: timing metrics are read from the quietest one.
BLOCKS = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, p: int) -> float:
    """How many of ``count`` samples lie beyond percentile ``p``."""
    return count * (100 - p) / 100.0


def pick_tail_percentile(class_counts: Iterable[int]) -> int:
    """Highest candidate percentile with at least ten samples beyond it
    in *every* class; p50 when no candidate qualifies."""
    counts = list(class_counts)
    for p in reversed(PERCENTILES):
        if counts and all(samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
                          for n in counts):
            return p
    return PERCENTILES[0]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values."""
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty sample")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def class_percentiles(latencies: Mapping[str, Sequence[float]],
                      p: float) -> dict[str, float]:
    """Percentile ``p`` of each op class's latencies over the whole run."""
    return {cls: percentile(values, p) for cls, values in latencies.items()}


def class_geomean(latencies: Mapping[str, Sequence[float]],
                  p: float) -> float:
    """Geometric mean over op classes of :func:`class_percentiles`
    (app-weighted: a 3 ms class counts as much as a 130 ms one)."""
    return geomean(class_percentiles(latencies, p).values())


def round_median(rounds: Sequence[tuple]) -> float:
    """Median over rounds of (ops in round / round wall seconds); a
    round is ``(ops, wall seconds, ...)``."""
    if not rounds:
        raise ValueError("round_median of no rounds")
    return statistics.median(ops / wall for ops, wall, *_ in rounds)


def consecutive_blocks(rounds: Sequence, k: int = BLOCKS) -> list:
    """Cut ``rounds`` into at most ``k`` consecutive blocks of near-equal
    length (fewer rounds than ``k``: one block per round)."""
    k = min(k, len(rounds))
    return [rounds[i * len(rounds) // k:(i + 1) * len(rounds) // k]
            for i in range(k)]


def quietest_block(rounds: Sequence[tuple], k: int = BLOCKS) -> Sequence:
    """The block of consecutive rounds with the highest throughput
    (:func:`round_median`).

    The host only ever adds time, in episodes of seconds to minutes: a
    statistic over the whole run follows the share of the run an episode
    covered, the quietest tenth only needs a second or so of quiet."""
    return max(consecutive_blocks(rounds, k), key=round_median)


def merge_classes(rounds: Iterable[tuple]) -> dict[str, list[float]]:
    """Per-class latencies of ``(ops, wall, {class: latencies})`` rounds."""
    merged: dict[str, list[float]] = {}
    for _, _, by_class in rounds:
        for cls, values in by_class.items():
            merged.setdefault(cls, []).extend(values)
    return merged


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread the bounds are judged against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ----------------------------------------------------------------------
# Traced-run arithmetic
# ----------------------------------------------------------------------

def self_time(span) -> float:
    """A span's duration minus the part its direct children cover."""
    return max(0.0, span.duration
               - sum(child.duration for child in span.children))


def span_totals(spans, prefix: str = "bench.") -> dict[str, float]:
    """Total *self* seconds per span name, benchmark-side spans only.

    Spans recorded inside ``src/`` may nest under benchmark spans; they
    are subtracted from their parent like any child but never reported,
    so later instrumentation changes inside the program cannot redefine
    a benchmark metric.
    """
    totals: dict[str, float] = {}
    for span in spans:
        if span.name.startswith(prefix):
            totals[span.name] = totals.get(span.name, 0.0) + self_time(span)
    return totals


def unattributed(facade_seconds: float,
                 stage_seconds: Mapping[str, float]) -> float:
    """Facade wall minus the replayed stages (may be negative when the
    stage-by-stage replay is slower than the fused facade call)."""
    return facade_seconds - sum(stage_seconds.values())


def share(part: float, whole: float) -> float:
    """``part / whole`` with an empty whole reading as zero."""
    return part / whole if whole else 0.0
