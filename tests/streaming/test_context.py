"""StreamContext: geometry, determinism, backpressure, exactly-once.

The in-process half of the recovery story (the subprocess SIGKILL half
lives in ``tests/integration/test_stream_resume.py``): graceful stops,
checkpoint tampering that simulates a crash between emit and save, and
the bit-identity of recovered sink bytes.
"""

import json

import pytest

from repro import RuntimeConfig, S2FASession, StreamConfig
from repro.blaze import BlazeRuntime
from repro.dse.engine import CHAOS_KILL_ENV
from repro.errors import S2FAError, StreamError, StreamInterrupted
from repro.spark import SparkContext
from repro.streaming import (
    BACKPRESSURE_LAGGING,
    BACKPRESSURE_OK,
    JSONLSink,
    MemorySink,
    StreamCheckpointStore,
    StreamContext,
)


def gen(n, seed):
    return [(seed + 31 * i) % (2 ** 31) for i in range(n)]


def make_ctx(cfg, partitions=2):
    sc = SparkContext(default_parallelism=partitions)
    return StreamContext(BlazeRuntime(sc), cfg)


def run_map_stream(cfg, sink=None, name="t", fn=None):
    """One map-only stream over the seeded source; returns the outcome."""
    ctx = make_ctx(cfg)
    src = ctx.source(gen, seed=cfg.data_seed, total=cfg.total_records,
                     chunk_records=8)
    pipeline = src.map(fn or (lambda x: x % 1000))
    return ctx.run(pipeline, sink if sink is not None else MemorySink(),
                   name=name)


class TestConfigValidation:
    def test_unbounded_needs_max_batches(self):
        with pytest.raises(StreamError, match="unbounded"):
            StreamConfig(total_records=None)

    def test_resume_needs_checkpoint_dir(self):
        with pytest.raises(StreamError, match="checkpoint_dir"):
            StreamConfig(resume=True)

    @pytest.mark.parametrize("kwargs", [
        {"batch_records": 0},
        {"interval_seconds": 0.0},
        {"total_records": -1},
        {"max_batches": 0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(StreamError):
            StreamConfig(**kwargs)


class TestGeometry:
    def test_final_batch_is_clipped(self):
        cfg = StreamConfig(total_records=20, batch_records=8)
        outcome = run_map_stream(cfg)
        assert outcome.total_batches == 3
        assert outcome.batches == 3
        assert outcome.records_in == 20

    def test_max_batches_caps_a_bounded_source(self):
        cfg = StreamConfig(total_records=64, batch_records=8,
                           max_batches=3)
        outcome = run_map_stream(cfg)
        assert outcome.batches == 3
        assert outcome.records_in == 24

    def test_unbounded_source_runs_max_batches(self):
        cfg = StreamConfig(total_records=None, batch_records=8,
                           max_batches=5)
        outcome = run_map_stream(cfg)
        assert outcome.batches == 5
        assert outcome.records_in == 40


class TestDeterminism:
    def test_two_runs_emit_identical_rows(self):
        cfg = StreamConfig(total_records=48, batch_records=8)
        a, b = MemorySink(), MemorySink()
        run_map_stream(cfg, sink=a)
        run_map_stream(cfg, sink=b)
        assert a.rows == b.rows
        assert a.duplicates_skipped == 0

    def test_rows_are_keyed_and_sequenced(self):
        cfg = StreamConfig(total_records=32, batch_records=8)
        sink = MemorySink()
        outcome = run_map_stream(cfg, sink=sink)
        keys = [(row["batch"], row["part"]) for row in sink.rows]
        assert len(keys) == len(set(keys))
        seqs = [row["seq"] for row in sink.rows]
        assert seqs == list(range(len(seqs)))
        assert outcome.rows_emitted == len(sink.rows)
        assert outcome.seq == len(sink.rows)


class TestBackpressure:
    def test_lagging_then_recovery(self):
        cfg = StreamConfig(total_records=96, batch_records=8,
                           interval_seconds=0.1, max_lag_intervals=1.0)
        ctx = make_ctx(cfg)
        clock = ctx.runtime.clock
        seen = {"n": 0}

        def slow_then_fast(record):
            # the first two batches overrun the interval 4x; the rest
            # are free, so the stream catches back up to its schedule
            seen["n"] += 1
            if seen["n"] <= 16:
                clock.advance(0.05)
            return record

        src = ctx.source(gen, seed=1, total=96, chunk_records=8)
        outcome = ctx.run(src.map(slow_then_fast), MemorySink())

        states = [signal.state for signal in outcome.signals]
        assert states == [BACKPRESSURE_LAGGING, BACKPRESSURE_OK]
        lagging, ok = outcome.signals
        assert lagging.batch_id == 0
        assert lagging.lag_seconds > 0.1
        assert outcome.lagging_batches > 0
        assert len(outcome.recovery_seconds) == 1
        assert outcome.recovery_seconds[0] > 0

    def test_keeping_up_emits_no_signals(self):
        cfg = StreamConfig(total_records=48, batch_records=8,
                           interval_seconds=0.1)
        outcome = run_map_stream(cfg)
        assert outcome.signals == []
        assert outcome.lagging_batches == 0
        assert outcome.throughput_rps > 0


class TestExactlyOnceInProcess:
    def _baseline(self, tmp_path, **kwargs):
        path = tmp_path / "baseline.jsonl"
        sink = JSONLSink(path)
        run_map_stream(StreamConfig(total_records=48, batch_records=8,
                                    **kwargs), sink=sink)
        sink.close()
        return path.read_bytes()

    def _interrupt(self, tmp_path, monkeypatch, at="stop:1"):
        """Run to a graceful chaos stop; returns the sink path."""
        monkeypatch.setenv(CHAOS_KILL_ENV, at)
        path = tmp_path / "recovered.jsonl"
        sink = JSONLSink(path)
        cfg = StreamConfig(total_records=48, batch_records=8,
                           checkpoint_dir=str(tmp_path / "ck"))
        with pytest.raises(StreamInterrupted) as excinfo:
            run_map_stream(cfg, sink=sink)
        sink.close()
        monkeypatch.delenv(CHAOS_KILL_ENV)
        assert excinfo.value.checkpoint_path is not None
        assert excinfo.value.batches == 2
        return path

    def test_graceful_stop_then_resume_is_bit_identical(
            self, tmp_path, monkeypatch):
        baseline = self._baseline(tmp_path)
        path = self._interrupt(tmp_path, monkeypatch)
        assert path.read_bytes() != baseline     # genuinely partial

        sink = JSONLSink(path)
        cfg = StreamConfig(total_records=48, batch_records=8,
                           checkpoint_dir=str(tmp_path / "ck"),
                           resume=True)
        outcome = run_map_stream(cfg, sink=sink)
        sink.close()
        assert outcome.resumed
        assert outcome.duplicates_skipped == 0
        assert path.read_bytes() == baseline
        # a completed stream leaves nothing to resume
        assert not StreamCheckpointStore(tmp_path / "ck").has("t")

    def test_replayed_batch_is_deduped_bit_identically(
            self, tmp_path, monkeypatch):
        # Simulate a crash *between* emit and checkpoint: put the
        # previous batch's checkpoint back (offset and sequence counter
        # one batch earlier), so the resume recomputes a batch whose
        # rows are already durable.  The sink must refuse the replay and
        # the final bytes must still equal the uninterrupted run's.
        baseline = self._baseline(tmp_path)
        path = self._interrupt(tmp_path, monkeypatch)

        store = StreamCheckpointStore(tmp_path / "ck")
        payload = json.loads(store.path("t").read_text())
        payload["next_batch"] -= 1
        payload["seq"] -= 2                      # one batch x 2 parts
        store.save("t", payload)

        sink = JSONLSink(path)
        cfg = StreamConfig(total_records=48, batch_records=8,
                           checkpoint_dir=str(tmp_path / "ck"),
                           resume=True)
        outcome = run_map_stream(cfg, sink=sink)
        sink.close()
        assert outcome.duplicates_skipped == 2   # one batch x 2 parts
        assert path.read_bytes() == baseline

    def test_resume_rejects_a_diverging_configuration(
            self, tmp_path, monkeypatch):
        self._interrupt(tmp_path, monkeypatch)
        cfg = StreamConfig(total_records=48, batch_records=8,
                           data_seed=99,        # not the stream we left
                           checkpoint_dir=str(tmp_path / "ck"),
                           resume=True)
        with pytest.raises(StreamError, match="data_seed"):
            run_map_stream(cfg)

    def test_stop_without_checkpointing_reports_the_gap(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_KILL_ENV, "stop:1")
        cfg = StreamConfig(total_records=48, batch_records=8)
        with pytest.raises(StreamInterrupted,
                           match="checkpointing disabled") as excinfo:
            run_map_stream(cfg)
        assert excinfo.value.checkpoint_path is None

    def test_resume_without_a_checkpoint_starts_fresh(self, tmp_path):
        # idempotent-restart semantics: --resume on a clean directory
        baseline = self._baseline(tmp_path)
        path = tmp_path / "fresh.jsonl"
        sink = JSONLSink(path)
        cfg = StreamConfig(total_records=48, batch_records=8,
                           checkpoint_dir=str(tmp_path / "ck2"),
                           resume=True)
        outcome = run_map_stream(cfg, sink=sink)
        sink.close()
        assert not outcome.resumed
        assert path.read_bytes() == baseline


class TestCheckpointStore:
    PAYLOAD = {"identity": {"app": "t"}, "next_batch": 3, "seq": 6,
               "operators": {}}

    def test_save_load_round_trip(self, tmp_path):
        store = StreamCheckpointStore(tmp_path)
        store.save("t", dict(self.PAYLOAD))
        assert store.has("t")
        loaded = store.load("t", identity={"app": "t"})
        assert loaded["next_batch"] == 3
        assert loaded["kind"] == "s2fa-stream-checkpoint"
        store.discard("t")
        assert not store.has("t")
        store.discard("t")                       # idempotent

    def test_name_is_slugged(self, tmp_path):
        store = StreamCheckpointStore(tmp_path)
        assert store.path("a/b c").name == "a_b_c.stream.ckpt.json"

    def test_load_rejects_foreign_json(self, tmp_path):
        store = StreamCheckpointStore(tmp_path)
        store.path("t").write_text('{"other": true}')
        with pytest.raises(StreamError, match="not a stream checkpoint"):
            store.load("t")

    def test_load_rejects_wrong_version(self, tmp_path):
        store = StreamCheckpointStore(tmp_path)
        store.save("t", dict(self.PAYLOAD))
        payload = json.loads(store.path("t").read_text())
        payload["version"] = 99
        store.path("t").write_text(json.dumps(payload))
        with pytest.raises(StreamError, match="version"):
            store.load("t")

    def test_load_rejects_missing_field(self, tmp_path):
        store = StreamCheckpointStore(tmp_path)
        payload = dict(self.PAYLOAD)
        del payload["seq"]
        store.save("t", payload)
        with pytest.raises(StreamError, match="missing 'seq'"):
            store.load("t")

    def test_load_rejects_corrupt_file(self, tmp_path):
        store = StreamCheckpointStore(tmp_path)
        store.path("t").write_text("{torn")
        with pytest.raises(StreamError, match="corrupt"):
            store.load("t")

    def test_identity_mismatch_names_the_keys(self, tmp_path):
        store = StreamCheckpointStore(tmp_path)
        store.save("t", dict(self.PAYLOAD))
        with pytest.raises(StreamError, match="app"):
            store.load("t", identity={"app": "other"})


class TestSessionApps:
    def small(self, **kwargs):
        kwargs.setdefault("runtime", RuntimeConfig(partitions=2))
        return StreamConfig(total_records=48, batch_records=8, **kwargs)

    @pytest.mark.parametrize("app", ["lr-stream", "aes-window",
                                     "log-filter"])
    def test_apps_stream_to_completion(self, app):
        outcome = S2FASession().stream(app, self.small())
        assert outcome.batches == outcome.total_batches == 6
        assert outcome.rows_emitted > 0
        assert outcome.duplicates_skipped == 0
        assert isinstance(outcome.sink, MemorySink)
        assert outcome.sink.rows

    def test_unknown_app_rejected(self):
        with pytest.raises(S2FAError, match="lr-stream"):
            S2FASession().stream("no-such-stream")

    def test_faults_change_timing_not_content(self):
        clean = S2FASession().stream("lr-stream", self.small())
        faulty = S2FASession().stream("lr-stream", self.small(
            runtime=RuntimeConfig(partitions=2,
                                  fault_plan="transient=0.3,hang=0.1",
                                  fault_seed=7)))
        assert faulty.sink.rows == clean.sink.rows
        assert faulty.metrics.transient_faults + faulty.metrics.timeouts \
            > 0
        assert faulty.elapsed_seconds > clean.elapsed_seconds

    def test_all_boards_lost_falls_back_bit_identically(self):
        clean = S2FASession().stream("lr-stream", self.small())
        lost = S2FASession().stream("lr-stream", self.small(
            runtime=RuntimeConfig(partitions=2,
                                  fault_plan="lose_after=1")))
        assert lost.sink.rows == clean.sink.rows
        assert lost.metrics.devices_lost >= 1
        assert lost.metrics.fallback_tasks > 0

    def test_stateful_app_resumes_bit_identically(
            self, tmp_path, monkeypatch):
        # aes-window carries a window buffer across batches: the
        # checkpointed operator state must replay bit for bit.
        baseline = tmp_path / "base.jsonl"
        S2FASession().stream("aes-window",
                             self.small(sink=str(baseline)))

        monkeypatch.setenv(CHAOS_KILL_ENV, "stop:2")
        recovered = tmp_path / "rec.jsonl"
        with pytest.raises(StreamInterrupted):
            S2FASession().stream("aes-window", self.small(
                sink=str(recovered),
                checkpoint_dir=str(tmp_path / "ck")))
        monkeypatch.delenv(CHAOS_KILL_ENV)
        assert recovered.read_bytes() != baseline.read_bytes()

        outcome = S2FASession().stream("aes-window", self.small(
            sink=str(recovered),
            checkpoint_dir=str(tmp_path / "ck"), resume=True))
        assert outcome.resumed
        assert outcome.duplicates_skipped == 0
        assert recovered.read_bytes() == baseline.read_bytes()
