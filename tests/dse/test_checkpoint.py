"""Resume by replay: a rerun over the same cache finishes a stopped run.

An exploration is a deterministic function of its seed and
configuration, and the persistent :class:`CacheStore` keeps every
estimate a stopped run made.  The property under test throughout is:
stopping a run after any batch and rerunning it over the same store
reproduces the uninterrupted run's report exactly, with no point
estimated twice.  The engine's optional :class:`CheckpointStore` only
marks batch boundaries; its payload and keying are checked at the end.
"""

import json

import pytest

from repro.apps import ALL_APPS, get_app
from repro.dse import (
    CacheStore,
    CheckpointStore,
    Evaluator,
    S2FAEngine,
    build_space,
)
from repro.dse.checkpoint import CHECKPOINT_KIND
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


def _stopped(compiled, space, store, monkeypatch, stop_after, **engine):
    """Run until the graceful stop after batch ``stop_after``."""
    monkeypatch.setenv("S2FA_CHAOS_KILL", f"stop:{stop_after}")
    try:
        with pytest.raises(ExplorationInterrupted) as excinfo:
            S2FAEngine(Evaluator(compiled, store=store), space,
                       **engine).run()
    finally:
        monkeypatch.delenv("S2FA_CHAOS_KILL")
    assert excinfo.value.rounds == stop_after
    return excinfo.value


def _store_keys(directory):
    keys = []
    for path in directory.glob("*.jsonl"):
        keys += [json.loads(line)["key"]
                 for line in path.read_text().splitlines() if line]
    return keys


# ----------------------------------------------------------------------
# In-process stop + rerun: trajectory equality
# ----------------------------------------------------------------------


class TestResumeExactness:
    @pytest.mark.parametrize("stop_after", [1, 2, 4])
    def test_resumed_run_is_bit_identical(self, kmeans, kmeans_space,
                                          tmp_path, monkeypatch,
                                          stop_after):
        engine = dict(seed=SEED, time_limit_minutes=TIME_LIMIT)
        baseline = S2FAEngine(Evaluator(kmeans), kmeans_space,
                              **engine).run()
        _stopped(kmeans, kmeans_space, CacheStore(tmp_path), monkeypatch,
                 stop_after, **engine)

        evaluator = Evaluator(kmeans, store=CacheStore(tmp_path))
        resumed = S2FAEngine(evaluator, kmeans_space, **engine).run()

        assert _fingerprint(resumed) == _fingerprint(baseline)
        # The stopped run's estimates were replayed, not recomputed.
        assert evaluator.store_hits > 0

    def test_no_duplicate_backend_evaluations(self, kmeans, kmeans_space,
                                              tmp_path, monkeypatch):
        engine = dict(seed=SEED, time_limit_minutes=TIME_LIMIT)
        _stopped(kmeans, kmeans_space, CacheStore(tmp_path), monkeypatch,
                 2, **engine)
        S2FAEngine(Evaluator(kmeans, store=CacheStore(tmp_path)),
                   kmeans_space, **engine).run()

        keys = _store_keys(tmp_path)
        assert keys and len(keys) == len(set(keys)), \
            "a point was re-estimated"

    def test_stop_message_names_the_cache(self, kmeans, kmeans_space,
                                          tmp_path, monkeypatch):
        engine = dict(seed=SEED, time_limit_minutes=TIME_LIMIT)
        stopped = _stopped(kmeans, kmeans_space, CacheStore(tmp_path),
                           monkeypatch, 1, **engine)
        assert "rerun with the same --cache-dir" in str(stopped)
        stopped = _stopped(kmeans, kmeans_space, None, monkeypatch, 1,
                           **engine)
        assert "no persistent cache" in str(stopped)


class TestReplayAcrossApps:
    """Every built-in app and seed: stop after batch 1 or 3, rerun over
    the same store, and the report equals an uninterrupted no-store
    run's, byte for byte."""

    @pytest.mark.parametrize("spec", ALL_APPS, ids=lambda s: s.name)
    def test_replay_equals_uninterrupted(self, spec, tmp_path,
                                         monkeypatch):
        compiled = spec.compile()
        space = build_space(compiled)
        for seed in (0, 7, 23):
            baseline = _fingerprint(
                S2FAEngine(Evaluator(compiled), space, seed=seed).run())
            for stop_after in (1, 3):
                directory = tmp_path / f"{seed}-{stop_after}"
                _stopped(compiled, space, CacheStore(directory),
                         monkeypatch, stop_after, seed=seed)
                rerun = S2FAEngine(
                    Evaluator(compiled, store=CacheStore(directory)),
                    space, seed=seed).run()
                assert _fingerprint(rerun) == baseline, \
                    (spec.name, seed, stop_after)
                keys = _store_keys(directory)
                assert len(keys) == len(set(keys))


# ----------------------------------------------------------------------
# The checkpoint seam: what an engine given a store writes
# ----------------------------------------------------------------------


def _interrupted_with_checkpoint(compiled, space, directory,
                                 device=VU9P, store=None):
    checkpoints = CheckpointStore(directory)
    evaluator = Evaluator(compiled, device=device, store=store)
    engine = S2FAEngine(evaluator, space, seed=SEED,
                        time_limit_minutes=TIME_LIMIT,
                        checkpoint_store=checkpoints)
    engine.request_stop()
    with pytest.raises(ExplorationInterrupted):
        engine.run()
    return checkpoints, evaluator.kernel_digest


class TestValidation:
    def test_written_checkpoint_validates_clean(self, kmeans,
                                                kmeans_space, tmp_path):
        checkpoints, digest = _interrupted_with_checkpoint(
            kmeans, kmeans_space, tmp_path)
        assert CheckpointStore(tmp_path).load(digest) == {
            "kind": CHECKPOINT_KIND,
            "identity": {"kernel_digest": digest, "seed": SEED},
            "rounds": 1,
        }

    def test_corrupt_json_rejected(self, kmeans, kmeans_space, tmp_path):
        checkpoints, digest = _interrupted_with_checkpoint(
            kmeans, kmeans_space, tmp_path)
        path = checkpoints.path(digest)
        path.write_text(path.read_text()[:-10])
        with pytest.raises(DSEError, match="corrupt"):
            CheckpointStore(tmp_path).load(digest)

    def test_completed_run_discards_its_checkpoint(self, kmeans,
                                                   kmeans_space,
                                                   tmp_path):
        checkpoints = CheckpointStore(tmp_path)
        evaluator = Evaluator(kmeans)
        S2FAEngine(evaluator, kmeans_space, seed=SEED,
                   time_limit_minutes=TIME_LIMIT,
                   checkpoint_store=checkpoints).run()
        assert not checkpoints.has(evaluator.kernel_digest)


# ----------------------------------------------------------------------
# Device-dimension isolation: state written for one device is invisible
# to every other device sharing the directory
# ----------------------------------------------------------------------


class TestDeviceIsolation:
    def test_checkpoint_keyed_by_device_envelope(self, kmeans,
                                                 kmeans_space, tmp_path):
        checkpoints, small_digest = _interrupted_with_checkpoint(
            kmeans, kmeans_space, tmp_path, device=KC705,
            store=CacheStore(tmp_path))
        assert checkpoints.has(small_digest)
        assert CacheStore(tmp_path).size(small_digest) > 0
        # The same kernel on any other registry device keys elsewhere:
        # a rerun there replays nothing of KC705's exploration.
        for device in REGISTRY:
            if device.name == KC705.name:
                continue
            other = Evaluator(kmeans, device=device,
                              store=CacheStore(tmp_path))
            assert other.kernel_digest != small_digest
            assert not checkpoints.has(other.kernel_digest)
            S2FAEngine(other, kmeans_space, seed=SEED,
                       time_limit_minutes=TIME_LIMIT).run()
            assert other.store_hits == 0

    def test_scaled_same_name_device_keys_elsewhere(self, kmeans,
                                                    kmeans_space,
                                                    tmp_path):
        impostor = VU9P.scaled(VU9P.name, area=0.5)
        assert Evaluator(kmeans, device=VU9P).kernel_digest \
            != Evaluator(kmeans, device=impostor).kernel_digest
