"""Trace exporters: JSONL round trip, Chrome schema, loading."""

import json

import pytest

from repro.obs import (
    Tracer,
    chrome_trace_document,
    load_trace,
    spans_from_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture
def tracer():
    t = Tracer()
    with t.span("pipeline.explore", seed=3):
        with t.span("compile.kernel", pattern="map"):
            pass
        with t.span("dse.batch", round=0) as batch:
            batch.set(proposals=4, qor=float("inf"))
            with t.span("hls.estimate", cycles=100):
                pass
    t.metrics.incr("dse.batches")
    return t


class TestJsonl:
    def test_round_trip(self, tracer, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(path, tracer)
        assert count == 4
        roots = spans_from_jsonl(path.read_text())
        assert [r.name for r in roots] == ["pipeline.explore"]
        names = [s.name for s in roots[0].walk()]
        assert names == ["pipeline.explore", "compile.kernel",
                         "dse.batch", "hls.estimate"]
        batch = roots[0].children[1]
        assert batch.attrs["proposals"] == 4

    def test_non_finite_floats_stay_valid_json(self, tracer, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tracer)
        for line in path.read_text().splitlines():
            json.loads(line)   # must be strict JSON

    def test_empty_tracer(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_jsonl(path, Tracer()) == 0
        assert spans_from_jsonl(path.read_text()) == []


class TestChrome:
    def test_document_validates(self, tracer):
        document = chrome_trace_document(tracer)
        assert validate_chrome_trace(document) == []
        complete = [e for e in document["traceEvents"]
                    if e["ph"] == "X"]
        assert len(complete) == 4
        assert {e["name"] for e in complete} == {
            "pipeline.explore", "compile.kernel", "dse.batch",
            "hls.estimate"}

    def test_metrics_ride_along(self, tracer, tmp_path):
        path = tmp_path / "trace.json"
        document = write_chrome_trace(path, tracer)
        assert document["otherData"]["metrics"]["counters"][
            "dse.batches"] == 1
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(document, default=str))

    def test_validator_catches_problems(self):
        assert validate_chrome_trace([]) \
            == ["document is list, not an object"]
        assert validate_chrome_trace({}) \
            == ["missing or non-array 'traceEvents'"]
        bad = {"traceEvents": [{"ph": "X", "name": "a", "ts": 0,
                                "pid": 1, "tid": 0, "dur": -1}]}
        assert any("bad 'dur'" in p for p in validate_chrome_trace(bad))
        missing = {"traceEvents": [{"name": "a"}]}
        assert any("'ph'" in p for p in validate_chrome_trace(missing))


class TestLoadTrace:
    def test_chrome_nesting_survives(self, tracer, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer)
        roots = load_trace(path)
        assert [r.name for r in roots] == ["pipeline.explore"]
        names = [s.name for s in roots[0].walk()]
        assert names == ["pipeline.explore", "compile.kernel",
                         "dse.batch", "hls.estimate"]
        root = roots[0]
        assert root.self_duration <= root.duration

    def test_jsonl_auto_detected(self, tracer, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tracer)
        roots = load_trace(path)
        assert [r.name for r in roots] == ["pipeline.explore"]

    def test_invalid_chrome_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"traceEvents": [{"ph": "X", "name": "a"}]}))
        with pytest.raises(ValueError, match="invalid Chrome trace"):
            load_trace(path)

    def test_worker_lanes_load_as_separate_roots(self, tmp_path):
        # Nesting is rebuilt per thread lane: a span on another ``tid``
        # is a root even when its interval sits inside a lane-0 span.
        def event(name, tid):
            return {"name": name, "ph": "X", "ts": 0, "dur": 10 - tid,
                    "pid": 1, "tid": tid}

        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": [
            event("dse.batch", 0), event("hls.estimate", 7)]}))
        roots = load_trace(path)
        assert sorted(r.name for r in roots) == ["dse.batch",
                                                 "hls.estimate"]
