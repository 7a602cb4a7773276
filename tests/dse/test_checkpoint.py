"""Exploration checkpointing: round-trips, validation, exact resume.

The checkpoint journals the *complete* explorer state — tuner RNG
streams, technique internals, bandit statistics, stopping-rule history,
virtual-clock accounting, and the evaluator's in-run cache — so the
property under test throughout is: (checkpoint + cache) replays the
bit-identical trajectory of an uninterrupted run.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.dse import (
    BanditTuner,
    CacheStore,
    CheckpointStore,
    EntropyStopping,
    Evaluator,
    S2FAEngine,
    build_space,
    validate_checkpoint,
)
from repro.dse.checkpoint import (
    restore_stopping,
    restore_tuner,
    rng_state_from_json,
    rng_state_to_json,
    stopping_to_json,
    tuner_to_json,
)
from repro.dse.evaluator import Evaluation
from repro.errors import DSEError, ExplorationInterrupted
from repro.hls.device import KC705, REGISTRY, VU9P

SEED = 5
TIME_LIMIT = 60.0


@pytest.fixture(scope="module")
def kmeans():
    return get_app("KMeans").compile()


@pytest.fixture(scope="module")
def kmeans_space(kmeans):
    return build_space(kmeans)


def _fingerprint(run):
    data = run.to_dict()
    data.pop("evaluator_stats", None)
    return json.dumps(data, sort_keys=True)


def _baseline(kmeans, space):
    evaluator = Evaluator(kmeans)
    return S2FAEngine(evaluator, space, seed=SEED,
                      time_limit_minutes=TIME_LIMIT).run()


# ----------------------------------------------------------------------
# Property: state round-trips exactly through JSON
# ----------------------------------------------------------------------


class TestRngRoundTrip:
    @given(seed=st.integers(0, 2**32), draws=st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_stream_continues_identically(self, seed, draws):
        rng = random.Random(seed)
        for _ in range(draws):
            rng.random()
        payload = json.loads(json.dumps(rng_state_to_json(rng)))
        clone = random.Random(0)
        clone.setstate(rng_state_from_json(payload))
        assert [clone.random() for _ in range(20)] \
            == [rng.random() for _ in range(20)]
        assert clone.gauss(0, 1) == rng.gauss(0, 1)


@pytest.fixture(scope="module")
def sample_result(kmeans, kmeans_space):
    from repro.hls import estimate
    from repro.merlin import DesignConfig

    point = kmeans_space.default_point()
    return estimate(kmeans.kernel, DesignConfig.from_point(point))


def _feed_tuner(tuner, steps, rng, result):
    """Drive a tuner with synthetic evaluations (pure bookkeeping)."""
    for _ in range(steps):
        name, point = tuner.step()
        qor = rng.uniform(1.0, 100.0)
        tuner.feed(name, Evaluation(point=point, qor=qor, result=result,
                                    minutes=1.0, cached=False))


class TestTunerRoundTrip:
    @given(seed=st.integers(0, 2**31), steps=st.integers(0, 25))
    @settings(max_examples=25, deadline=None)
    def test_propose_sequence_identical_after_restore(
            self, kmeans_space, sample_result, seed, steps):
        driver = random.Random(seed ^ 0xABCDEF)
        tuner = BanditTuner(kmeans_space, random.Random(seed))
        _feed_tuner(tuner, steps, driver, sample_result)

        payload = json.loads(json.dumps(tuner_to_json(tuner)))
        clone = BanditTuner(kmeans_space, random.Random(0))
        restore_tuner(clone, payload)

        # The restored tuner must propose the exact same future sequence.
        for _ in range(10):
            assert clone.step() == tuner.step()

    def test_bandit_statistics_survive(self, kmeans_space,
                                       sample_result):
        tuner = BanditTuner(kmeans_space, random.Random(3))
        _feed_tuner(tuner, 12, random.Random(9), sample_result)
        clone = BanditTuner(kmeans_space, random.Random(0))
        restore_tuner(clone, tuner_to_json(tuner))
        assert clone.bandit.uses == tuner.bandit.uses
        assert clone.bandit.total == tuner.bandit.total
        assert list(clone.bandit.window) == list(tuner.bandit.window)
        assert clone.best.qor == tuner.best.qor
        assert clone.best.point == tuner.best.point

    def test_portfolio_mismatch_rejected(self, kmeans_space):
        tuner = BanditTuner(kmeans_space, random.Random(3))
        payload = tuner_to_json(tuner)
        del payload["techniques"]["greedy-mutation"]
        clone = BanditTuner(kmeans_space, random.Random(0))
        with pytest.raises(DSEError, match="technique"):
            restore_tuner(clone, payload)


class TestStoppingRoundTrip:
    @given(data=st.lists(st.floats(1.0, 1e6), min_size=0, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_entropy_history_survives(self, kmeans_space, data):
        rng = random.Random(7)
        stopping = EntropyStopping()
        for qor in data:
            stopping.observe(kmeans_space.random_point(rng), qor)
        clone = EntropyStopping()
        restore_stopping(clone, json.loads(
            json.dumps(stopping_to_json(stopping))))
        assert clone.__dict__ == stopping.__dict__
        # Future observations see the same history, hence same verdicts.
        point = kmeans_space.random_point(random.Random(11))
        assert clone.observe(point, 42.0) == stopping.observe(point, 42.0)
        assert clone.__dict__ == stopping.__dict__


# ----------------------------------------------------------------------
# Validation and rejection
# ----------------------------------------------------------------------


class TestValidation:
    def _checkpoint(self, kmeans, kmeans_space, tmp_path):
        store = CacheStore(tmp_path)
        checkpoints = CheckpointStore(tmp_path)
        evaluator = Evaluator(kmeans, store=store)
        engine = S2FAEngine(evaluator, kmeans_space, seed=SEED,
                            time_limit_minutes=TIME_LIMIT,
                            checkpoint_store=checkpoints)
        engine.request_stop()
        with pytest.raises(ExplorationInterrupted):
            engine.run()
        return checkpoints, evaluator.kernel_digest

    def test_written_checkpoint_validates_clean(self, kmeans,
                                                kmeans_space, tmp_path):
        checkpoints, digest = self._checkpoint(kmeans, kmeans_space,
                                               tmp_path)
        payload = json.loads(checkpoints.path(digest).read_text())
        assert validate_checkpoint(payload) == []

    def test_corrupt_json_rejected(self, kmeans, kmeans_space, tmp_path):
        checkpoints, digest = self._checkpoint(kmeans, kmeans_space,
                                               tmp_path)
        path = checkpoints.path(digest)
        path.write_text(path.read_text()[:-40])
        with pytest.raises(DSEError, match="corrupt"):
            CheckpointStore(tmp_path).load(digest)

    def test_version_mismatch_rejected(self, kmeans, kmeans_space,
                                       tmp_path):
        checkpoints, digest = self._checkpoint(kmeans, kmeans_space,
                                               tmp_path)
        path = checkpoints.path(digest)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(DSEError, match="version"):
            CheckpointStore(tmp_path).load(digest)

    def test_identity_mismatch_rejected_on_resume(self, kmeans,
                                                  kmeans_space, tmp_path):
        self._checkpoint(kmeans, kmeans_space, tmp_path)
        store = CacheStore(tmp_path)
        evaluator = Evaluator(kmeans, store=store)
        engine = S2FAEngine(evaluator, kmeans_space,
                            seed=SEED + 1,  # different trajectory
                            time_limit_minutes=TIME_LIMIT,
                            checkpoint_store=CheckpointStore(tmp_path))
        with pytest.raises(DSEError, match="seed"):
            engine.resume()

    def test_resume_without_checkpoint_rejected(self, kmeans,
                                                kmeans_space, tmp_path):
        evaluator = Evaluator(kmeans)
        engine = S2FAEngine(evaluator, kmeans_space, seed=SEED,
                            time_limit_minutes=TIME_LIMIT,
                            checkpoint_store=CheckpointStore(tmp_path))
        with pytest.raises(DSEError, match="no checkpoint"):
            engine.resume()


# ----------------------------------------------------------------------
# In-process stop + resume: trajectory equality
# ----------------------------------------------------------------------


class TestResumeExactness:
    @pytest.mark.parametrize("stop_after", [1, 2, 4])
    def test_resumed_run_is_bit_identical(self, kmeans, kmeans_space,
                                          tmp_path, monkeypatch,
                                          stop_after):
        baseline = _baseline(kmeans, kmeans_space)

        directory = tmp_path / f"ck{stop_after}"
        monkeypatch.setenv("S2FA_CHAOS_KILL", f"stop:{stop_after}")
        evaluator = Evaluator(kmeans, store=CacheStore(directory))
        engine = S2FAEngine(evaluator, kmeans_space, seed=SEED,
                            time_limit_minutes=TIME_LIMIT,
                            checkpoint_store=CheckpointStore(directory))
        with pytest.raises(ExplorationInterrupted) as excinfo:
            engine.run()
        assert excinfo.value.rounds == stop_after
        assert excinfo.value.checkpoint_path is not None

        monkeypatch.delenv("S2FA_CHAOS_KILL")
        checkpoints = CheckpointStore(directory)
        evaluator = Evaluator(kmeans, store=CacheStore(directory))
        engine = S2FAEngine(evaluator, kmeans_space, seed=SEED,
                            time_limit_minutes=TIME_LIMIT,
                            checkpoint_store=checkpoints)
        resumed = engine.resume()

        assert resumed.resumed
        assert _fingerprint(resumed) == _fingerprint(baseline)
        # A finished run leaves no checkpoint behind.
        assert not checkpoints.has(evaluator.kernel_digest)

    def test_resumed_flag_not_exported(self, kmeans, kmeans_space):
        run = _baseline(kmeans, kmeans_space)
        assert run.resumed is False
        assert "resumed" not in run.to_dict()

    def test_no_duplicate_backend_evaluations(self, kmeans, kmeans_space,
                                              tmp_path, monkeypatch):
        monkeypatch.setenv("S2FA_CHAOS_KILL", "stop:2")
        evaluator = Evaluator(kmeans, store=CacheStore(tmp_path))
        engine = S2FAEngine(evaluator, kmeans_space, seed=SEED,
                            time_limit_minutes=TIME_LIMIT,
                            checkpoint_store=CheckpointStore(tmp_path))
        with pytest.raises(ExplorationInterrupted):
            engine.run()
        digest = evaluator.kernel_digest

        monkeypatch.delenv("S2FA_CHAOS_KILL")
        store = CacheStore(tmp_path)
        evaluator = Evaluator(kmeans, store=store)
        S2FAEngine(evaluator, kmeans_space, seed=SEED,
                   time_limit_minutes=TIME_LIMIT,
                   checkpoint_store=CheckpointStore(tmp_path)).resume()

        lines = (tmp_path / f"{digest}.jsonl").read_text().splitlines()
        keys = [json.loads(line)["key"] for line in lines if line]
        assert len(keys) == len(set(keys)), "a point was re-estimated"


class TestEvaluatorCachePriming:
    def test_prime_cache_replays_memory_hits(self, kmeans, kmeans_space):
        evaluator = Evaluator(kmeans)
        point = kmeans_space.default_point()
        first = evaluator.evaluate(point)
        snapshot = evaluator.cache_snapshot()

        fresh = Evaluator(kmeans)
        fresh.prime_cache(snapshot)
        replay = fresh.evaluate(point)
        assert replay.cached
        assert replay.result == first.result


# ----------------------------------------------------------------------
# Device-dimension isolation: a checkpoint written for one device is
# invisible to every other device sharing the directory
# ----------------------------------------------------------------------


class TestDeviceIsolation:
    def test_checkpoint_keyed_by_device_envelope(self, kmeans,
                                                 kmeans_space, tmp_path):
        checkpoints = CheckpointStore(tmp_path)
        evaluator = Evaluator(kmeans, device=KC705)
        engine = S2FAEngine(evaluator, kmeans_space, seed=SEED,
                            time_limit_minutes=TIME_LIMIT,
                            checkpoint_store=checkpoints)
        engine.request_stop()
        with pytest.raises(ExplorationInterrupted):
            engine.run()
        small_digest = evaluator.kernel_digest
        assert checkpoints.has(small_digest)
        # The same kernel on any other registry device keys elsewhere:
        # no resumable state exists, so exploration starts fresh
        # instead of replaying another device's trajectory.
        for device in REGISTRY:
            if device.name == KC705.name:
                continue
            other = Evaluator(kmeans, device=device)
            assert other.kernel_digest != small_digest
            assert not checkpoints.has(other.kernel_digest)
            engine = S2FAEngine(other, kmeans_space, seed=SEED,
                                time_limit_minutes=TIME_LIMIT,
                                checkpoint_store=checkpoints)
            with pytest.raises(DSEError, match="no checkpoint"):
                engine.resume()

    def test_scaled_same_name_device_keys_elsewhere(self, kmeans,
                                                    kmeans_space,
                                                    tmp_path):
        impostor = VU9P.scaled(VU9P.name, area=0.5)
        assert Evaluator(kmeans, device=VU9P).kernel_digest \
            != Evaluator(kmeans, device=impostor).kernel_digest
