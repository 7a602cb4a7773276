"""Trace exporters: JSONL span logs and Chrome ``trace_event`` JSON.

Two on-disk formats, one in-memory model (:class:`~repro.obs.span.Span`):

* **JSONL span log** — one flattened span per line
  (``{"id", "parent", "name", "start", "dur", "attrs"}``), cheap to
  ``grep`` and to post-process;
* **Chrome trace JSON** — the ``trace_event`` "JSON Object Format"
  (``{"traceEvents": [...]}``) with complete (``"ph": "X"``) events,
  loadable directly in ``chrome://tracing`` or Perfetto.  Span
  attributes become event ``args``.

:func:`validate_chrome_trace` checks the schema the CI smoke step (and
``s2fa trace summarize``) relies on; :func:`load_trace` reads either
format back into spans.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Optional, Union

from .span import Span, Tracer

#: ``pid`` / ``tid`` used for every event (one trace == one logical
#: process, one lane).
TRACE_PID = 1
TRACE_TID = 0


def _roots(source: Union[Tracer, Iterable[Span]]) -> list[Span]:
    if isinstance(source, Tracer):
        return list(source.roots)
    return list(source)


# ----------------------------------------------------------------------
# JSONL span log
# ----------------------------------------------------------------------

def write_jsonl(path: Union[str, Path],
                source: Union[Tracer, Iterable[Span]]) -> int:
    """Write one flattened span per line; returns the span count."""
    lines = []
    counter = [0]

    def emit(span: Span, parent: Optional[int]) -> None:
        span_id = counter[0]
        counter[0] += 1
        lines.append(json.dumps({
            "id": span_id,
            "parent": parent,
            "name": span.name,
            "start": round(span.start, 9),
            "dur": round(span.duration, 9),
            "attrs": {k: _sanitize(v) if isinstance(v, float) else v
                      for k, v in span.attrs.items()},
        }, sort_keys=True, default=str))
        for child in span.children:
            emit(child, span_id)

    for root in _roots(source):
        emit(root, None)
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return counter[0]


def spans_from_jsonl(text: str) -> list[Span]:
    """Rebuild the span forest from a JSONL span log."""
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        span = Span(name=record["name"], start=float(record["start"]),
                    end=float(record["start"]) + float(record["dur"]),
                    attrs=dict(record.get("attrs", {})))
        by_id[record["id"]] = span
        parent = record.get("parent")
        if parent is None:
            roots.append(span)
        else:
            by_id[parent].children.append(span)
    return roots


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------

def chrome_trace_events(source: Union[Tracer, Iterable[Span]]
                        ) -> list[dict]:
    """Complete (``ph=X``) events for every span, microsecond units."""
    events: list[dict] = []

    def emit(span: Span) -> None:
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": round(span.start * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "args": {k: _sanitize(v) for k, v in span.attrs.items()
                     if isinstance(v, (str, int, float, bool,
                                       type(None)))},
        })
        for child in span.children:
            emit(child)

    for root in _roots(source):
        emit(root)
    return events


def _sanitize(value):
    """Strict-JSON-safe scalar (``inf``/``nan`` become strings)."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def chrome_trace_document(source: Union[Tracer, Iterable[Span]],
                          metrics: Optional[dict] = None) -> dict:
    """The full trace document (events + thread names + metrics)."""
    events = chrome_trace_events(source)
    if events:
        events.append({
            "name": "thread_name", "ph": "M", "pid": TRACE_PID,
            "tid": TRACE_TID, "ts": 0, "args": {"name": "host"},
        })
    events.append({
        "name": "process_name", "ph": "M", "pid": TRACE_PID,
        "tid": TRACE_TID, "ts": 0, "args": {"name": "s2fa"},
    })
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metrics:
        document["otherData"] = {"metrics": metrics}
    return document


def write_chrome_trace(path: Union[str, Path],
                       source: Union[Tracer, Iterable[Span]],
                       metrics: Optional[dict] = None) -> dict:
    """Write the Chrome trace JSON; returns the written document."""
    if metrics is None and isinstance(source, Tracer):
        metrics = source.metrics.snapshot()
    document = chrome_trace_document(source, metrics=metrics)
    Path(path).write_text(json.dumps(document, indent=1,
                                     default=str))
    return document


def validate_chrome_trace(document) -> list[str]:
    """Schema-check a Chrome trace document; returns the problem list.

    An empty list means the document is loadable by ``chrome://tracing``
    / Perfetto as far as the JSON Object Format contract goes: a
    ``traceEvents`` array whose entries carry ``name``/``ph``/``ts``/
    ``pid``/``tid`` with the right types, and a numeric non-negative
    ``dur`` on every complete (``"X"``) event.
    """
    problems: list[str] = []
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, not an object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where} is not an object")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where} has no string 'name'")
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            problems.append(f"{where} has no 'ph' phase")
            continue
        for key in ("ts", "pid", "tid"):
            if not isinstance(event.get(key), (int, float)):
                problems.append(f"{where} has no numeric {key!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"{where} complete event has bad 'dur': {dur!r}")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where} 'args' is not an object")
    return problems


# ----------------------------------------------------------------------
# Loading (either format)
# ----------------------------------------------------------------------

def load_trace(path: Union[str, Path]) -> list[Span]:
    """Read a trace file (Chrome JSON or JSONL span log) as a forest.

    Chrome documents are validated first (``ValueError`` on schema
    problems); nesting is rebuilt from interval containment per thread
    lane, so per-stage *self* times survive the round trip.  Returns
    the list of root spans.
    """
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            document = json.loads(text)
        except ValueError:
            document = None
        if isinstance(document, list):
            document = {"traceEvents": document}
        if isinstance(document, dict) and "traceEvents" in document:
            problems = validate_chrome_trace(document)
            if problems:
                raise ValueError(
                    "invalid Chrome trace: " + "; ".join(problems[:5]))
            return _forest_from_events(document["traceEvents"])
        if document is not None and not isinstance(document, dict):
            raise ValueError("unrecognized trace file format")
    return spans_from_jsonl(text)


def _forest_from_events(events: list[dict]) -> list[Span]:
    """Rebuild span nesting from complete events via containment."""
    per_tid: dict[int, list[Span]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        start = float(event["ts"]) / 1e6
        span = Span(name=event["name"], start=start,
                    end=start + float(event["dur"]) / 1e6,
                    attrs=dict(event.get("args", {})))
        per_tid.setdefault(int(event["tid"]), []).append(span)

    roots: list[Span] = []
    for spans in per_tid.values():
        # Outermost-first: earlier start wins, longer duration breaks
        # ties, so a parent always precedes the spans it contains.
        spans.sort(key=lambda s: (s.start, -s.duration))
        stack: list[Span] = []
        for span in spans:
            while stack and not (span.start >= stack[-1].start
                                 and span.end <= stack[-1].end):
                stack.pop()
            if stack:
                stack[-1].children.append(span)
            else:
                roots.append(span)
            stack.append(span)
    roots.sort(key=lambda s: s.start)
    return roots
