"""Tests of the end-to-end benchmark itself.

Run as ``pytest benchmarks/e2e`` (about two minutes; deliberately not
part of tier-1, whose ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import e2e_metrics                                          # noqa: E402
import e2e_oracles as oracles                               # noqa: E402
import e2e_stats as stats                                   # noqa: E402
import e2e_workloads as wl                                  # noqa: E402
import run as bench                                         # noqa: E402

BENCHMARK_JSON = json.loads(
    (HERE.parents[1] / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

@pytest.mark.parametrize("counts, expected", [
    ([105] * 8, 90),            # 10.5 samples beyond p90, 5.25 beyond p95
    ([100, 99], 75),            # 9.9 beyond p90 in the smaller class
    ([1000, 2000], 99),         # exactly ten beyond p99
    ([999, 2000], 95),
    ([40], 75),
    ([19], 50),                 # nothing qualifies: floor at p50
    ([], 50),
])
def test_tail_percentile_needs_ten_samples_beyond(counts, expected):
    assert stats.pick_tail_percentile(counts) == expected


def test_fixed_tails_are_candidates():
    for cls in wl.WORKLOADS:
        assert cls.tail in stats.PERCENTILES


def test_percentile_interpolates():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([1, 2, 3, 4, 5], 75) == 4
    assert stats.percentile([7], 99) == 7


def test_class_geomean_weighs_classes_equally():
    latencies = {"small": [1.0] * 1000, "big": [4.0, 4.0, 4.0]}
    assert stats.class_percentiles(latencies, 50) == {"small": 1.0,
                                                      "big": 4.0}
    assert stats.class_geomean(latencies, 50) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


def test_quietest_block_survives_a_slow_two_thirds_of_the_run():
    # 30 rounds of 4 ops; rounds 5-24 run on a host twice as slow.
    rounds = [(4, 5.0, {"app": [1.0, 1.0, 1.0, 2.0]}) for _ in range(30)]
    for i in range(5, 25):
        rounds[i] = (4, 10.0, {"app": [2.0, 2.0, 2.0, 4.0]})
    assert stats.round_median(rounds) == 0.4            # follows the host
    assert stats.percentile(stats.merge_classes(rounds)["app"], 50) == 2.0
    blocks = stats.consecutive_blocks(rounds)
    assert len(blocks) == stats.BLOCKS
    assert [r for block in blocks for r in block] == rounds
    quiet = stats.quietest_block(rounds)
    assert len(quiet) == 3 and stats.round_median(quiet) == 0.8
    assert stats.class_percentiles(stats.merge_classes(quiet), 75) == \
        {"app": 1.25}
    # Fewer rounds than blocks: one block per round, the fastest wins.
    few = [(8, 2.0, {"a": [1.0]}), (8, 1.0, {"a": [0.5], "b": [0.5]})]
    assert stats.consecutive_blocks(few) == [few[:1], few[1:]]
    assert stats.quietest_block(few) == few[1:]


def test_round_median_is_the_median_of_rates():
    rounds = [(8, 1.0), (8, 2.0), (8, 4.0)]
    assert stats.round_median(rounds) == 4.0
    # A mean over all ops would be pulled to 24 / 7 by the slow round.
    assert stats.round_median(rounds) != pytest.approx(24 / 7)


def test_self_time_and_unattributed():
    from repro.obs import Span

    facade = Span("bench.facade", start=0.0, end=10.0)
    stage = Span("bench.dse.engine_run", start=1.0, end=7.0)
    inner = Span("bench.dse.evaluate", start=2.0, end=4.5)
    foreign = Span("dse.batch", start=5.0, end=6.0)     # from src/
    stage.children += [inner, foreign]
    facade.children.append(stage)
    assert stats.self_time(stage) == pytest.approx(2.5)
    totals = stats.span_totals(facade.walk())
    assert totals == {"bench.facade": pytest.approx(4.0),
                      "bench.dse.engine_run": pytest.approx(2.5),
                      "bench.dse.evaluate": pytest.approx(2.5)}
    assert "dse.batch" not in totals
    assert stats.unattributed(10.0, {"a": 6.0, "b": 2.5}) == \
        pytest.approx(1.5)
    assert stats.unattributed(1.0, {"a": 1.5}) == pytest.approx(-0.5)


def test_quartile_spread_matches_the_acceptance_rule():
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


# ----------------------------------------------------------------------
# Streaming oracle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("app", wl.STREAM_APPS)
def test_stream_oracle_on_a_64_record_stream(app, tmp_path):
    from repro import S2FASession, StreamConfig
    from repro.apps import get_stream_app

    spec = get_stream_app(app)
    sink = tmp_path / "sink.jsonl"
    config = StreamConfig(batch_records=16, total_records=64, data_seed=5,
                          sink=str(sink),
                          checkpoint_dir=str(tmp_path / "ckpt"))
    S2FASession().stream(spec, config)
    geometry = dict(seed=5, total=64, batch_records=16,
                    partitions=config.runtime.partitions)

    def verdict():
        return oracles.check_stream(spec, oracles.read_sink(sink),
                                    **geometry)

    assert verdict() == ""

    # The oracle is independent of the sink: damage one emitted value
    # and it must notice.
    lines = sink.read_text().splitlines()
    row = json.loads(lines[2])
    row["seq"] += 1
    lines[2] = json.dumps(row)
    sink.write_text("\n".join(lines) + "\n")
    assert "row 2" in verdict()
    # ... and so must a lost row.
    sink.write_text("\n".join(lines[:-1]) + "\n")
    assert "rows" in verdict()


def test_replay_state_carries_across_batches():
    from repro.apps import get_stream_app

    spec = get_stream_app("log-filter")
    rows = oracles.stream_replay(spec, seed=3, total=128,
                                 batch_records=32, partitions=4)
    totals: dict = {}
    for row in rows:
        for bucket, count in row["records"]:
            assert count > totals.get(bucket, 0)    # running, not reset
            totals[bucket] = count
    kept = sum(spec.reference(r) for r in oracles.source_records(
        spec.generator, 3, 128, spec.chunk_records))
    assert sum(totals.values()) == kept


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    assert set(BENCHMARK_JSON) == {"command", "paths", "run_seconds",
                                   "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK_JSON["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK_JSON["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK_JSON["run_seconds"] == bench.DEFAULT_SECONDS
    assert BENCHMARK_JSON["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _ in e2e_metrics.END_TO_END]
    assert BENCHMARK_JSON["per_layer"] == [
        {"name": n, "unit": u, "better": b}
        for n, u, b, _ in e2e_metrics.PER_LAYER]
    # stream-durable is measured but not gated (README, "Bounds").
    assert BENCHMARK_JSON["workloads"] == [
        {"name": cls.name, "why": cls.why} for cls in wl.WORKLOADS
        if cls is not wl.StreamDurable]
    for workload in BENCHMARK_JSON["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert all(0 < m["bound"] <= 0.25
               for m in BENCHMARK_JSON["end_to_end"])


# ----------------------------------------------------------------------
# Tiny-scale pass of every workload
# ----------------------------------------------------------------------

#: Per-layer metrics that must be non-zero on each workload's traced run
#: (the layers the workload is there to exercise).
MUST_MOVE = {
    "compile-sweep": ("scala.tokenize_s", "scala.frontend_s",
                      "compiler.lift_s", "hlsc.print_s", "hlsc.stmts",
                      "jvm.instructions", "jvm.lower_s"),
    "explore-sweep": ("merlin.apply_s", "hls.estimate_s",
                      "cost.features_s", "dse.evaluate_s",
                      "dse.engine_self_s", "dse.cache_put_us",
                      "dse.warm_explore_s", "dse.checkpoint_save_ms"),
    "offload-clean": ("spark.collect_s", "blaze.serialize_s",
                      "fpga.exec_s", "fpga.board_run_s",
                      "blaze.register_s", "jvm.tac_exec_s"),
    "offload-degraded": ("blaze.retries", "blaze.fallback_share",
                         "fpga.faults_injected", "jvm.tac_exec_s",
                         "blaze.bridge_s"),
    "serve-closed": ("serve.wire_us", "serve.core_step_ms",
                     "serve.ping_rtt_ms", "serve.first_request_ms",
                     "serve.cache_hit_share", "fpga.exec_s"),
    "stream-memory": ("streaming.source_s", "spark.collect_s",
                      "blaze.serialize_s", "fpga.exec_s",
                      "streaming.rows", "streaming.records_per_s",
                      "streaming.memory_sink_ops_per_s"),
    "stream-durable": ("streaming.source_s", "streaming.encode_s",
                       "streaming.sink_write_s",
                       "streaming.checkpoint_save_s",
                       "streaming.sink_bytes",
                       "streaming.memory_sink_ops_per_s"),
}


def blocking_path(workload: str, v: dict) -> dict:
    """Seconds per round (ms per request on serve-closed) of the disjoint
    stages on the workload's blocking path, summed per layer."""
    if workload == "compile-sweep":
        return {"scala": v["scala.frontend_s"],
                "compiler": v["compiler.lift_s"],
                "hlsc": v["hlsc.print_s"]}
    if workload == "explore-sweep":
        return {"hls": v["dse.model_score_s"],
                "dse": v["dse.engine_self_s"] + v["dse.space_s"],
                "compiler": v["compiler.compile_kernel_s"]}
    if workload == "serve-closed":
        return {"serve": v["serve.daemon_overhead_ms"],
                "blaze+fpga": v["serve.core_step_ms"]}
    blaze = (v["blaze.serialize_s"] + v["blaze.frame_verify_s"]
             + v["blaze.deserialize_s"])
    if workload.startswith("offload"):
        fell_back = v["blaze.fallback_share"]
        return {"fpga": v["fpga.board_run_s"] * (1 - fell_back),
                "jvm": v["jvm.tac_exec_s"] * fell_back,
                "blaze": blaze + v["blaze.bridge_s"] * fell_back,
                "spark": v["spark.collect_s"]}
    return {"fpga": v["fpga.board_run_s"], "blaze": blaze,
            "spark": v["spark.collect_s"],
            "streaming": (v["streaming.source_s"] + v["streaming.encode_s"]
                          + v["streaming.sink_write_s"]
                          + v["streaming.checkpoint_save_s"])}


#: The layer each workload is there to stress (its ``why``): it must be
#: the largest on the traced blocking path.
DOMINANT = {
    "compile-sweep": "scala",
    "explore-sweep": "hls",
    "offload-clean": "fpga",
    "offload-degraded": "jvm",
    "serve-closed": "serve",
    "stream-memory": "fpga",
    "stream-durable": "streaming",
}

#: ``*.unattributed_s`` of the workloads whose stages add up to the
#: facade wall *and* whose tiny traced run holds enough facade rounds for
#: the residue to be more than host noise.  The others (one or two
#: facade rounds of 1.5 s against one replay) are recorded in the README.
UNATTRIBUTED = {
    "compile-sweep": "compiler.unattributed_s",
    "offload-clean": "blaze.offload_unattributed_s",
    "stream-memory": "streaming.loop_unattributed_s",
}
#: ISSUE 11 hoped for 5%; these three measure within 4% at full length
#: (README, "Replay fidelity").  The limit guards against a stage
#: replayed wrongly (a back-to-back fsync replay once read 2x high)
#: without failing on a busy host.
UNATTRIBUTED_LIMIT = 0.25


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_tiny_pass_reports_every_metric(workload):
    plain = bench.run_workload(workload, 11, 0.5, trace=False)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] >= 1
    assert list(plain["metrics"]) == [
        m["name"] for m in BENCHMARK_JSON["end_to_end"]]
    for spec in BENCHMARK_JSON["end_to_end"]:
        cell = plain["metrics"][spec["name"]]
        assert cell["unit"] == spec["unit"] and cell["value"] > 0
    assert plain["detail"]["failed_share"] == 0

    traced = bench.run_workload(workload, 11, 1.0, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == [
        m["name"] for m in BENCHMARK_JSON["per_layer"]]
    for spec in BENCHMARK_JSON["per_layer"]:
        assert traced["metrics"][spec["name"]]["unit"] == spec["unit"]
    value = {n: c["value"] for n, c in traced["metrics"].items()}
    for name in MUST_MOVE[workload] + ("obs.null_span_ns", "obs.span_ns",
                                       "bench.facade_s",
                                       "bench.round_ops"):
        assert value[name] > 0, name
    for path in traced["detail"]["files"]:
        assert Path(path).stat().st_size > 0
    from repro.obs import validate_chrome_trace
    chrome = next(p for p in traced["detail"]["files"]
                  if p.endswith(".trace.json"))
    assert validate_chrome_trace(json.loads(Path(chrome).read_text())) \
        == []
    path = blocking_path(workload, value)
    assert max(path, key=path.get) == DOMINANT[workload], path
    if workload in UNATTRIBUTED:
        residue = value[UNATTRIBUTED[workload]] / value["bench.facade_s"]
        assert abs(residue) <= UNATTRIBUTED_LIMIT, residue
    if workload == "compile-sweep":
        assert value["fpga.exec_s"] == 0 and value["dse.evaluate_s"] == 0
    if workload == "offload-degraded":
        assert value["blaze.fallback_share"] >= 0.5
    if workload == "offload-clean":
        assert value["blaze.fallback_share"] == 0
    if workload == "stream-memory":
        assert value["streaming.sink_write_s"] == 0
        assert value["streaming.checkpoint_save_s"] == 0


def test_corrupted_oracle_input_fails_the_run(tmp_path):
    """A golden file that no longer matches must turn into failed ops,
    ``correct: false`` and a non-zero exit — in a scratch copy of the
    checkout, so the real golden files are never touched."""
    root = HERE.parents[1]
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(root / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=ignore)
    shutil.copytree(oracles.GOLDEN_DIR,
                    tmp_path / "tests" / "compiler" / "golden")
    victim = tmp_path / "tests" / "compiler" / "golden" / "kmeans.c"
    victim.write_text(victim.read_text().replace("for", "fro", 1))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "e2e" / "run.py"),
         "--workload", "compile-sweep", "--seed", "1", "--seconds", "0.3",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode != 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert "ORACLE FAILURE: KMeans" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "e2e" / "run.py"),
         "--workload", "compile-sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
