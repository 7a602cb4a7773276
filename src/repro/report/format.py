"""Plain-text tables and charts for the benchmark harness.

The benches regenerate the paper's tables and figures as terminal output:
aligned tables for Table 1/2 and ASCII line/bar charts for Fig. 3/4 (log
scale where the paper uses one).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render an aligned ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def log_bar_chart(labels: Sequence[str],
                  series: dict[str, Sequence[float]],
                  width: int = 50, title: str = "",
                  unit: str = "x") -> str:
    """Grouped horizontal bar chart on a log10 axis (Fig. 4 style)."""
    all_values = [v for vs in series.values() for v in vs
                  if v and math.isfinite(v)]
    if not all_values:
        return f"{title}\n(no data)"
    vmax = max(all_values)
    vmin = min(1.0, min(all_values))
    span = math.log10(vmax / vmin) or 1.0
    lines = [title] if title else []
    name_width = max(len(n) for n in series)
    for i, label in enumerate(labels):
        lines.append(f"{label}:")
        for name, values in series.items():
            value = values[i]
            if not math.isfinite(value) or value <= 0:
                bar = "(infeasible)"
                lines.append(f"  {name.ljust(name_width)} {bar}")
                continue
            frac = (math.log10(value / vmin)) / span
            bar = "#" * max(1, int(round(frac * width)))
            lines.append(
                f"  {name.ljust(name_width)} {bar} {value:.1f}{unit}")
    return "\n".join(lines)


def trace_chart(traces: dict[str, list[tuple[float, float]]],
                width: int = 64, height: int = 16,
                title: str = "",
                x_label: str = "minutes",
                y_label: str = "normalized cycles") -> str:
    """ASCII line chart of best-QoR-vs-time traces (Fig. 3 style).

    ``traces`` maps a series name to (time, qor) samples; the y axis is
    log-scaled like the normalized-cycle axis of Fig. 3.
    """
    points = [(t, q) for series in traces.values() for t, q in series
              if math.isfinite(q) and q > 0]
    if not points:
        return f"{title}\n(no feasible points)"
    tmax = max(t for t, _ in points) or 1.0
    qmin = min(q for _, q in points)
    qmax = max(q for _, q in points)
    if qmax <= qmin:
        qmax = qmin * 10
    logspan = math.log10(qmax / qmin)

    grid = [[" "] * width for _ in range(height)]
    markers = {}
    for index, (name, series) in enumerate(traces.items()):
        marker = chr(ord("A") + index) if len(traces) > 2 else \
            ("*" if index == 0 else ".")
        markers[name] = marker
        # Step-plot the best-so-far curve.
        best = float("inf")
        samples = sorted(series)
        column_values: list[Optional[float]] = [None] * width
        cursor = 0
        for col in range(width):
            t_here = (col + 1) / width * tmax
            while cursor < len(samples) and samples[cursor][0] <= t_here:
                best = min(best, samples[cursor][1])
                cursor += 1
            if math.isfinite(best):
                column_values[col] = best
        for col, value in enumerate(column_values):
            if value is None or value <= 0:
                continue
            frac = math.log10(value / qmin) / logspan if logspan else 0.0
            row = height - 1 - int(round(frac * (height - 1)))
            row = min(height - 1, max(0, row))
            if grid[row][col] == " ":
                grid[row][col] = marker

    lines = [title] if title else []
    lines.append(f"{qmax:.2e} +" + "-" * width)
    for row in grid:
        lines.append("         |" + "".join(row))
    lines.append(f"{qmin:.2e} +" + "-" * width)
    lines.append(" " * 10 + f"0 {x_label} -> {tmax:.0f}")
    legend = "  ".join(f"{marker}={name}"
                       for name, marker in markers.items())
    lines.append(" " * 10 + legend)
    return "\n".join(lines)


def evaluation_stats_table(stats: dict,
                           title: str = "Evaluation backend") -> str:
    """Render a DSE run's evaluation-backend statistics.

    ``stats`` is the dict produced by ``Evaluator.stats()``: batching
    behaviour and cache hit rates.
    """
    rows = [
        ["unique points", stats.get("unique_points", 0)],
        ["HLS estimates computed", stats.get("estimates", 0)],
        ["in-memory cache hits", stats.get("memory_hits", 0)],
        ["persistent cache hits", stats.get("store_hits", 0)],
        ["hit rate", f"{100.0 * stats.get('hit_rate', 0.0):.1f}%"],
        ["evaluation batches", stats.get("batches", 0)],
        ["mean batch size", f"{stats.get('mean_batch', 0.0):.1f}"],
        ["max batch size", stats.get("max_batch", 0)],
    ]
    store = stats.get("store")
    if store:
        detail = (f"{store.get('directory', '?')} "
                  f"(+{store.get('appends', 0)} records, "
                  f"{store.get('corrupt_lines', 0)} corrupt lines "
                  f"skipped)")
        if store.get("stale_records"):
            detail = detail[:-1] + (
                f", {store['stale_records']} stale records skipped)")
        rows.append(["cache store", detail])
    return format_table(["Statistic", "Value"], rows, title=title)


def blaze_metrics_table(metrics, title: str = "Blaze runtime") -> str:
    """Render a :class:`~repro.blaze.BlazeMetrics` (or its ``as_dict()``).

    Groups the task accounting and the structured failure counters the
    resilient offload path maintains: retries, timeouts, corrupt
    batches, quarantine transitions, and the fallback-due-to-fault vs
    fallback-no-hardware split.
    """
    stats = metrics.as_dict() if hasattr(metrics, "as_dict") else \
        dict(metrics)
    rows = [
        ["accelerated tasks", stats.get("accel_tasks", 0)],
        ["accelerated seconds", f"{stats.get('accel_seconds', 0.0):.6f}"],
        ["JVM fallback tasks", stats.get("fallback_tasks", 0)],
        ["JVM fallback seconds",
         f"{stats.get('fallback_seconds', 0.0):.6f}"],
        ["retries", stats.get("retries", 0)],
        ["transient faults", stats.get("transient_faults", 0)],
        ["timeouts (hangs)", stats.get("timeouts", 0)],
        ["corrupt batches", stats.get("corrupt_batches", 0)],
        ["devices lost", stats.get("devices_lost", 0)],
        ["quarantines", stats.get("quarantines", 0)],
        ["re-admission probes", stats.get("probes", 0)],
        ["re-admissions", stats.get("readmissions", 0)],
        ["fallback batches (fault)",
         stats.get("fault_fallback_batches", 0)],
        ["fallback tasks (fault)", stats.get("fault_fallback_tasks", 0)],
        ["fallback batches (no hardware)",
         stats.get("no_hardware_batches", 0)],
        ["wasted virtual seconds",
         f"{stats.get('wasted_seconds', 0.0):.6f}"],
    ]
    return format_table(["Metric", "Value"], rows, title=title)


def speedup_summary(names: Sequence[str], speedups: Sequence[float],
                    label: str) -> str:
    """Geometric-mean summary line used by the Fig. 4 bench."""
    finite = [s for s in speedups if math.isfinite(s) and s > 0]
    if not finite:
        return f"{label}: no feasible designs"
    geo = math.exp(sum(math.log(s) for s in finite) / len(finite))
    top = max(zip(finite, [n for n, s in zip(names, speedups)
                           if math.isfinite(s) and s > 0]))
    return (f"{label}: geomean {geo:.1f}x, max {top[0]:.1f}x ({top[1]}), "
            f"{len(finite)}/{len(speedups)} designs feasible")
