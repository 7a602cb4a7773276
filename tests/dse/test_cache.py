"""Persistent evaluation cache: keys, storage, and fault tolerance."""

import json
import multiprocessing
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.cost import AnalyticalCostModel
from repro.dse import (
    CacheStore,
    Evaluator,
    S2FAEngine,
    build_space,
    canonical_key,
    kernel_digest,
    point_from_key,
)
from repro.dse.cache import FORMAT_VERSION
from repro.hls import estimate
from repro.hls.device import KC705, REGISTRY, VU9P
from repro.hls.result import HLSResult
from repro.merlin import DesignConfig


@pytest.fixture(scope="module")
def kmeans():
    return get_app("KMeans").compile()


@pytest.fixture(scope="module")
def kmeans_result(kmeans):
    point = {"L0.pipeline": "on", "L0.parallel": 2,
             "bw.in_1": 128, "bw.out": 128}
    return point, estimate(kmeans.kernel, DesignConfig.from_point(point))


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------

_SLOW_OK = settings(deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-",
    min_size=1, max_size=12)
_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-2**31, max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16))
_points = st.dictionaries(_names, _values, min_size=0, max_size=8)


class TestCanonicalKey:
    @_SLOW_OK
    @given(_points, st.randoms())
    def test_round_trip_ignores_insertion_order(self, point, rng):
        names = list(point)
        rng.shuffle(names)
        shuffled = {name: point[name] for name in names}
        assert canonical_key(shuffled) == canonical_key(point)
        assert point_from_key(canonical_key(shuffled)) == point

    @_SLOW_OK
    @given(_points)
    def test_round_trip_preserves_value_types(self, point):
        back = point_from_key(canonical_key(point))
        assert {n: type(v) for n, v in back.items()} \
            == {n: type(v) for n, v in point.items()}

    def test_bool_int_float_keys_distinct(self):
        keys = {canonical_key({"p": value}) for value in (True, 1, 1.0)}
        assert len(keys) == 3

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_key({"p": float("nan")})

    def test_key_is_compact_json(self):
        key = canonical_key({"b": 2, "a": "on"})
        assert json.loads(key) == [["a", "on"], ["b", 2]]


class TestEvaluatorKeying:
    def test_insertion_order_hits_cache(self, kmeans):
        """Two orderings of the same point are one unique evaluation."""
        evaluator = Evaluator(kmeans)
        point = {"L0.pipeline": "on", "L0.parallel": 2,
                 "bw.in_1": 128, "bw.out": 128}
        reordered = dict(reversed(list(point.items())))
        assert list(reordered) != list(point)
        first = evaluator.evaluate(point)
        second = evaluator.evaluate(reordered)
        assert not first.cached
        assert second.cached
        assert second.qor == first.qor
        assert evaluator.stats()["unique_points"] == 1


# ----------------------------------------------------------------------
# Evaluator over a persistent store
# ----------------------------------------------------------------------

def _evaluation_tuples(evaluations):
    return [(e.qor, e.minutes, e.cached, e.result) for e in evaluations]


def _fingerprint(run):
    """Everything a run reports except the backend's own counters, as
    JSON text (a dict compare would hide ``230`` vs ``230.0``)."""
    data = run.to_dict()
    del data["evaluator_stats"]
    return json.dumps(data, sort_keys=True)


class TestEvaluatorStore:
    @pytest.fixture(scope="class")
    def space(self, kmeans):
        return build_space(kmeans)

    @pytest.fixture(scope="class")
    def batch(self, space):
        points = [space.default_point()]
        for parallel in (2, 4, 8):
            points.append(dict(points[0], **{"L0.parallel": parallel}))
        points.append(dict(points[0]))  # duplicate: hits the in-run cache
        return points

    def test_warm_store_reproduces_cold_run(self, kmeans, batch, tmp_path):
        cold = Evaluator(kmeans, store=CacheStore(tmp_path))
        first = cold.evaluate_batch(batch)
        assert cold.stats()["store_hits"] == 0
        assert cold.stats()["estimates"] == len(batch) - 1

        warm = Evaluator(kmeans, store=CacheStore(tmp_path))
        second = warm.evaluate_batch(batch)
        stats = warm.stats()
        # Same evaluations, same virtual-clock minutes, but nothing was
        # re-estimated: every unique point came from the store with its
        # original synthesis minutes and cached=False.
        assert _evaluation_tuples(second) == _evaluation_tuples(first)
        assert stats["estimates"] == 0
        assert stats["store_hits"] == len(batch) - 1
        assert stats["hit_rate"] > 0.9

    def test_engine_warm_cache_matches_cold_run(self, kmeans, space,
                                                tmp_path):
        def run():
            return S2FAEngine(
                Evaluator(kmeans, store=CacheStore(tmp_path)), space,
                seed=11, time_limit_minutes=60.0).run()

        cold, warm = run(), run()
        # Identical science — including identical virtual-clock
        # timelines, because store hits charge the original synthesis
        # minutes — but the warm run re-estimated nothing.
        assert _fingerprint(warm) == _fingerprint(cold)
        stats = warm.evaluator_stats
        assert stats["estimates"] == 0
        assert stats["store_hits"] == stats["unique_points"]
        assert stats["hit_rate"] > 0.9

    def test_evaluation_errors_never_persisted(self, kmeans, batch,
                                               tmp_path):
        class Exploding(AnalyticalCostModel):
            def score(self, kernel, config, device, *, tracer=None):
                raise RuntimeError("estimator imploded")

        assert Exploding.persistable
        store = CacheStore(tmp_path)
        evaluator = Evaluator(kmeans, store=store, cost_model=Exploding())
        evaluations = evaluator.evaluate_batch(batch)
        # The firewall turns the exception into an infeasible placeholder
        # that charges failure minutes ...
        assert all(e.qor == float("inf") for e in evaluations)
        assert all(e.result.infeasible_reason
                   == "evaluation error: estimator imploded"
                   for e in evaluations)
        # ... and a placeholder is not an estimate: none reaches the
        # store, so a later run with a working model re-estimates.
        assert store.appends == 0
        assert store.size(evaluator.kernel_digest) == 0


# ----------------------------------------------------------------------
# CacheStore
# ----------------------------------------------------------------------

class TestCacheStore:
    def test_round_trip(self, tmp_path, kmeans, kmeans_result):
        point, result = kmeans_result
        digest = kernel_digest(kmeans.kernel, VU9P)
        key = canonical_key(point)
        store = CacheStore(tmp_path)
        assert store.get(digest, key) is None
        store.put(digest, key, result.synthesis_minutes, result)

        fresh = CacheStore(tmp_path)
        minutes, loaded = fresh.get(digest, key)
        assert minutes == result.synthesis_minutes
        assert loaded == result
        assert json.dumps(loaded.to_dict()) == json.dumps(result.to_dict())

    def test_numbers_decode_as_written(self, tmp_path, kmeans,
                                       kmeans_result):
        _, result = kmeans_result
        assert type(result.freq_mhz) is int
        digest = kernel_digest(kmeans.kernel, VU9P)
        CacheStore(tmp_path).put(digest, "k", 1.0, result)
        _, loaded = CacheStore(tmp_path).get(digest, "k")
        assert type(loaded.freq_mhz) is int
        assert loaded.freq_mhz == result.freq_mhz

    @pytest.mark.parametrize("bad", ["230", None, True])
    def test_non_number_field_is_corrupt(self, tmp_path, kmeans_result,
                                         bad):
        _, result = kmeans_result
        data = result.to_dict()
        data["freq_mhz"] = bad
        with pytest.raises(ValueError, match="expected a number"):
            HLSResult.from_dict(data)
        digest = "d" * 24
        record = {"v": FORMAT_VERSION, "key": "k", "minutes": 1.0,
                  "result": data}
        (tmp_path / f"{digest}.jsonl").write_text(json.dumps(record) + "\n")
        store = CacheStore(tmp_path)
        assert store.get(digest, "k") is None
        assert store.corrupt_lines == 1

    def test_last_write_wins(self, tmp_path, kmeans, kmeans_result):
        point, result = kmeans_result
        digest = kernel_digest(kmeans.kernel, VU9P)
        key = canonical_key(point)
        store = CacheStore(tmp_path)
        store.put(digest, key, 1.0, result)
        store.put(digest, key, 42.0, result)
        fresh = CacheStore(tmp_path)
        minutes, _ = fresh.get(digest, key)
        assert minutes == 42.0
        assert fresh.size(digest) == 1

    @given(garbage=st.sampled_from([
        b"not json at all",
        b"{\"key\": 17}",
        b"[1, 2, 3]",
        b"{\"key\": \"x\", \"minutes\": \"soon\", \"result\": {}}",
        b"\xff\xfe\x00garbage bytes",
        b"{\"key\": \"x\", \"minutes\": 1.0, \"result\"",  # torn line
    ]))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_corrupt_lines_skipped(self, tmp_path_factory, kmeans,
                                   kmeans_result, garbage):
        point, result = kmeans_result
        digest = kernel_digest(kmeans.kernel, VU9P)
        key = canonical_key(point)
        directory = tmp_path_factory.mktemp("store")
        store = CacheStore(directory)
        store.put(digest, key, 3.0, result)
        with open(directory / f"{digest}.jsonl", "ab") as handle:
            handle.write(garbage)

        fresh = CacheStore(directory)
        minutes, loaded = fresh.get(digest, key)
        assert (minutes, loaded) == (3.0, result)
        assert fresh.corrupt_lines == 1

    def test_truncated_final_line_keeps_earlier_records(
            self, tmp_path, kmeans, kmeans_result):
        point, result = kmeans_result
        digest = kernel_digest(kmeans.kernel, VU9P)
        store = CacheStore(tmp_path)
        store.put(digest, "good", 1.0, result)
        store.put(digest, "torn", 2.0, result)
        path = tmp_path / f"{digest}.jsonl"
        data = path.read_bytes()
        path.write_bytes(data[:-len(data.splitlines()[-1]) // 2 - 1])

        fresh = CacheStore(tmp_path)
        assert fresh.get(digest, "good") is not None
        assert fresh.get(digest, "torn") is None
        assert fresh.corrupt_lines == 1

    def test_schema_drift_treated_as_miss(self, tmp_path):
        digest = "d" * 24
        path = tmp_path / f"{digest}.jsonl"
        record = {"v": FORMAT_VERSION, "key": "k", "minutes": 1.0,
                  "result": {"not_a_field": True}}
        path.write_text(json.dumps(record) + "\n")
        store = CacheStore(tmp_path)
        assert store.get(digest, "k") is None
        assert store.corrupt_lines == 1

    def test_other_format_version_skipped_as_stale(
            self, tmp_path, caplog, kmeans_result):
        # A record from another store format is never mis-parsed: it is
        # skipped with a warning and counted, then re-estimated.
        _, result = kmeans_result
        digest = "d" * 24
        path = tmp_path / f"{digest}.jsonl"
        records = [
            {"v": FORMAT_VERSION - 1, "key": "old", "minutes": 1.0,
             "result": result.to_dict()},
            {"key": "unversioned", "minutes": 1.0,
             "result": result.to_dict()},
            {"v": FORMAT_VERSION, "key": "current", "minutes": 2.0,
             "result": result.to_dict()},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records))
        store = CacheStore(tmp_path)
        with caplog.at_level("WARNING", logger="repro.dse.cache"):
            assert store.get(digest, "old") is None
        assert store.get(digest, "unversioned") is None
        assert store.get(digest, "current") is not None
        assert store.stale_records == 2
        assert store.corrupt_lines == 0
        assert any("another store format" in r.message
                   for r in caplog.records)

    def test_fsync_append_survives_torn_tail_repair(
            self, tmp_path, kmeans_result):
        # A parsable final line that merely lost its newline is healed
        # in place, not truncated.
        _, result = kmeans_result
        digest = "d" * 24
        store = CacheStore(tmp_path)
        store.put(digest, "whole", 1.0, result)
        path = tmp_path / f"{digest}.jsonl"
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        fresh = CacheStore(tmp_path)
        assert fresh.get(digest, "whole") is not None
        assert fresh.corrupt_lines == 0
        assert path.read_bytes().endswith(b"\n")


def _append_records(directory, digest, start, count, payload):
    store = CacheStore(directory)
    result = HLSResult.from_dict(payload)
    for index in range(start, start + count):
        store.put(digest, f"point-{index}", float(index), result)


class TestConcurrentAppends:
    def test_two_processes_lose_no_records(self, tmp_path, kmeans,
                                           kmeans_result):
        _, result = kmeans_result
        digest = kernel_digest(kmeans.kernel, VU9P)
        payload = result.to_dict()
        count = 150
        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(target=_append_records,
                        args=(tmp_path, digest, base, count, payload))
            for base in (0, count)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0

        store = CacheStore(tmp_path)
        assert store.size(digest) == 2 * count
        assert store.corrupt_lines == 0
        probe = random.Random(7).sample(range(2 * count), 20)
        for index in probe:
            minutes, loaded = store.get(digest, f"point-{index}")
            assert minutes == float(index)
            assert loaded == result


# ----------------------------------------------------------------------
# Device-dimension isolation (the stale-skip guarantee's sibling: an
# entry keyed under one device is never served for another)
# ----------------------------------------------------------------------

class TestDeviceIsolation:
    def test_digest_differs_per_device(self, kmeans):
        digests = {kernel_digest(kmeans.kernel, d) for d in REGISTRY}
        assert len(digests) == len(REGISTRY)

    def test_same_name_different_envelope_differs(self, kmeans):
        # Two scaled devices sharing a name must not collide: the
        # digest hashes the full envelope identity, not the name.
        impostor = VU9P.scaled(VU9P.name, area=0.5)
        assert impostor.name == VU9P.name
        assert kernel_digest(kmeans.kernel, impostor) \
            != kernel_digest(kmeans.kernel, VU9P)

    def test_equal_envelope_shares_the_digest(self, kmeans):
        clone = VU9P.scaled(VU9P.name)
        assert kernel_digest(kmeans.kernel, clone) \
            == kernel_digest(kmeans.kernel, VU9P)

    def test_store_entry_invisible_under_other_device(
            self, tmp_path, kmeans, kmeans_result):
        point, result = kmeans_result
        key = canonical_key(point)
        store = CacheStore(tmp_path)
        store.put(kernel_digest(kmeans.kernel, KC705), key,
                  result.synthesis_minutes, result)
        fresh = CacheStore(tmp_path)
        assert fresh.get(kernel_digest(kmeans.kernel, KC705), key) \
            is not None
        for other in REGISTRY:
            if other.name == KC705.name:
                continue
            assert fresh.get(
                kernel_digest(kmeans.kernel, other), key) is None

    def test_evaluators_on_distinct_devices_share_a_store(
            self, tmp_path, kmeans):
        point = {"L0.pipeline": "on", "L0.parallel": 2,
                 "bw.in_1": 128, "bw.out": 128}
        small = Evaluator(kmeans, device=KC705,
                          store=CacheStore(tmp_path))
        big = Evaluator(kmeans, device=VU9P,
                        store=CacheStore(tmp_path))
        assert small.kernel_digest != big.kernel_digest
        a = small.evaluate(point)
        b = big.evaluate(point)
        # One directory, no cross-talk: the second device re-estimates
        # instead of inheriting the first device's numbers.
        assert not b.cached
        assert big.store_hits == 0
        assert b.result.freq_mhz != a.result.freq_mhz \
            or b.qor != a.qor
