"""Surrogate-guided pruning: the optimum must never be surrogate-trusted.

The contract under test (see ``repro.dse.engine``):

* on an exhaustively-checkable micro-space, a pruned run returns the
  *identical* optimum as the unpruned run — pruning may only save
  evaluations, never change the answer;
* every reported evaluation that survives pruning is analytical; pruned
  points are marked and excluded from the optimum;
* cache namespaces of different cost models never mix (the digest
  carries the model identity), and stale-format store records are
  skipped, not mis-read.
"""

import json

import pytest

from repro.apps import get_app
from repro.cost import (
    AnalyticalCostModel,
    SurrogateCostModel,
    extract_features,
)
from repro.dataset.train import targets_for
from repro.dataset import DatasetRecord
from repro.dse import Evaluator, S2FAEngine, build_space
from repro.dse.cache import (
    FORMAT_VERSION,
    CacheStore,
    canonical_key,
    kernel_digest,
)
from repro.errors import DSEError, ExplorationInterrupted
from repro.hls.estimator import ESTIMATOR_VERSION
from repro.merlin.config import DesignConfig

import math


@pytest.fixture(scope="module")
def small_space():
    compiled = get_app("KMeans").compile()
    space = build_space(compiled)
    restricted = space.restrict({
        "L0.parallel": (1, 4, 16),
        "L0.tile": (1, 16),
        "call_L0.parallel": (1,),
        "call_L0.tile": (1,),
        "call_L0_0.tile": (1,),
        "call_L0_0.parallel": (1, 16),
        "bw.in_1": (64, 512),
        "bw.out_1": (64,),
    })
    return compiled, restricted


@pytest.fixture(scope="module")
def surrogate(small_space):
    """A GBDT surrogate trained on the enumerated micro space.

    Training on the full enumeration gives a high-fidelity model, so
    the guard isolates the *pruning machinery* (batch pruning, synthetic
    evaluations, finalize revalidation) rather than surrogate accuracy —
    accuracy on real spaces is covered by the fidelity reports.
    """
    from repro.dse.exhaustive import enumerate_points
    from repro.cost import train_gbdt

    compiled, space = small_space
    model = AnalyticalCostModel()
    records = []
    for point in enumerate_points(space):
        config = DesignConfig.from_point(point)
        qor = model.score(compiled.kernel, config)
        records.append(DatasetRecord(
            kernel="KMeans", digest="train", point=point,
            features=extract_features(compiled.kernel, config).values,
            feature_schema=1, feasible=qor.feasible,
            qor=qor.value if qor.feasible else None,
            cycles=qor.cycles, minutes=qor.minutes,
            estimator_version=ESTIMATOR_VERSION))
    targets, cutoff = targets_for(records)
    fitted = train_gbdt([list(r.features) for r in records], targets,
                        n_trees=60)
    return SurrogateCostModel(fitted, infeasible_cutoff=cutoff)


class TestOptimumPreservation:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pruned_run_returns_identical_optimum(self, small_space,
                                                  surrogate, seed):
        compiled, space = small_space
        plain = S2FAEngine(Evaluator(compiled), space, seed=seed,
                           max_partitions=4).run()
        pruned = S2FAEngine(Evaluator(compiled), space, seed=seed,
                            max_partitions=4, surrogate=surrogate,
                            prune_fraction=0.5).run()
        assert pruned.best_qor == plain.best_qor
        assert pruned.best_point == plain.best_point

    def test_pruning_reported_and_never_costs_extra(self, small_space,
                                                    surrogate):
        compiled, space = small_space
        plain = S2FAEngine(Evaluator(compiled), space, seed=1,
                           max_partitions=4).run()
        pruned = S2FAEngine(Evaluator(compiled), space, seed=1,
                            max_partitions=4, surrogate=surrogate,
                            prune_fraction=0.5).run()
        stats = pruned.surrogate_stats
        assert stats is not None and stats["pruned"] > 0
        # On a micro space full revalidation may re-buy every pruned
        # point, so "identical optimum" costs at most as many
        # analytical evaluations as the plain run (the wall-clock win
        # shows on real spaces, where the revalidation cap binds).
        assert pruned.evaluations <= plain.evaluations
        # The report records what the surrogate did.
        assert stats["model"] == surrogate.identity()
        from repro.dse.engine import REVALIDATE_CAP

        assert stats["revalidated"] <= REVALIDATE_CAP

    def test_surviving_points_are_analytical(self, small_space,
                                             surrogate):
        compiled, space = small_space
        evaluator = Evaluator(compiled)
        run = S2FAEngine(evaluator, space, seed=2, max_partitions=4,
                         surrogate=surrogate, prune_fraction=0.5).run()
        assert run.best_result is not None
        # The optimum exists in the evaluator's (analytical) cache.
        assert evaluator.is_known(run.best_point)

    def test_prune_fraction_validated(self, small_space, surrogate):
        compiled, space = small_space
        for bad in (-0.1, 1.0, 2.0):
            with pytest.raises(DSEError, match="prune_fraction"):
                S2FAEngine(Evaluator(compiled), space,
                           surrogate=surrogate, prune_fraction=bad)

    def test_zero_fraction_prunes_nothing(self, small_space, surrogate):
        compiled, space = small_space
        plain = S2FAEngine(Evaluator(compiled), space, seed=3,
                           max_partitions=4).run()
        zero = S2FAEngine(Evaluator(compiled), space, seed=3,
                          max_partitions=4, surrogate=surrogate,
                          prune_fraction=0.0).run()
        assert zero.surrogate_stats["pruned"] == 0
        assert zero.evaluations == plain.evaluations
        assert zero.best_qor == plain.best_qor


class TestCacheIdentity:
    def test_digest_separates_cost_models(self, small_space, surrogate):
        compiled, _ = small_space
        from repro.hls.device import VU9P

        analytical = kernel_digest(compiled.kernel, VU9P,
                                   AnalyticalCostModel().identity())
        learned = kernel_digest(compiled.kernel, VU9P,
                                surrogate.identity())
        bare = kernel_digest(compiled.kernel, VU9P)
        assert len({analytical, learned, bare}) == 3

    def test_stale_format_records_are_skipped(self, tmp_path,
                                              small_space):
        """A pre-v3 store file must be ignored, not mis-parsed."""
        compiled, space = small_space
        evaluator = Evaluator(compiled,
                              store=CacheStore(tmp_path))
        point = space.default_point()
        evaluator.evaluate(point)
        digest = evaluator.kernel_digest
        path = tmp_path / f"{digest}.jsonl"
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert all(r["v"] == FORMAT_VERSION for r in records)
        # Rewrite as a previous-format store: every record stale.
        for record in records:
            record["v"] = FORMAT_VERSION - 1
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        fresh = CacheStore(tmp_path)
        assert fresh.get(digest, canonical_key(point)) is None
        assert fresh.stale_records == len(records)

    def test_surrogate_evaluator_never_persists(self, tmp_path,
                                                small_space, surrogate):
        compiled, space = small_space
        store = CacheStore(tmp_path)
        evaluator = Evaluator(compiled, store=store,
                              cost_model=surrogate)
        evaluation = evaluator.evaluate(space.default_point())
        assert math.isfinite(evaluation.qor) or evaluation.qor == float("inf")
        assert store.appends == 0
        assert store.size(evaluator.kernel_digest) == 0


def _fingerprint(run):
    data = run.to_dict()
    data.pop("evaluator_stats", None)
    return json.dumps(data, sort_keys=True)


class TestWarmStoreDecisions:
    """What an earlier run left in the persistent store must not change
    which points this run prunes: a warm rerun, a cold run and a
    no-store run explore identically.  Replay-resume depends on it."""

    @pytest.fixture(scope="class")
    def full_space(self, small_space):
        compiled, _ = small_space
        return compiled, build_space(compiled)

    def test_is_known_ignores_earlier_runs(self, tmp_path, small_space):
        compiled, space = small_space
        point = space.default_point()
        Evaluator(compiled, store=CacheStore(tmp_path)).evaluate(point)

        warm = Evaluator(compiled, store=CacheStore(tmp_path))
        assert not warm.is_known(point)
        warm.evaluate(point)
        assert warm.store_hits == 1
        assert warm.is_known(point)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_warm_cold_and_storeless_runs_agree(self, tmp_path,
                                                full_space, surrogate,
                                                seed):
        compiled, space = full_space

        def run(store):
            return S2FAEngine(Evaluator(compiled, store=store), space,
                              seed=seed, surrogate=surrogate,
                              prune_fraction=0.5).run()

        plain = run(None)
        cold = run(CacheStore(tmp_path))
        warm = run(CacheStore(tmp_path))
        assert plain.surrogate_stats["pruned"] > 0
        assert warm.evaluator_stats["estimates"] == 0
        assert _fingerprint(cold) == _fingerprint(plain)
        assert _fingerprint(warm) == _fingerprint(plain)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_replay_after_stop_equals_uninterrupted(
            self, tmp_path, monkeypatch, full_space, surrogate, seed):
        compiled, space = full_space
        engine = dict(seed=seed, surrogate=surrogate, prune_fraction=0.5)
        baseline = _fingerprint(
            S2FAEngine(Evaluator(compiled), space, **engine).run())
        for stop_after in (1, 3):
            directory = tmp_path / str(stop_after)
            monkeypatch.setenv("S2FA_CHAOS_KILL", f"stop:{stop_after}")
            with pytest.raises(ExplorationInterrupted):
                S2FAEngine(Evaluator(compiled,
                                     store=CacheStore(directory)),
                           space, **engine).run()
            monkeypatch.delenv("S2FA_CHAOS_KILL")
            rerun = S2FAEngine(
                Evaluator(compiled, store=CacheStore(directory)),
                space, **engine).run()
            assert _fingerprint(rerun) == baseline, stop_after
