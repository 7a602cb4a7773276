"""End-to-end DSE engine tests (S2FA engine and OpenTuner baseline)."""

import dataclasses
import math

import pytest

from repro.apps import get_app
from repro.dse import (
    Evaluator,
    OpenTunerRuntime,
    S2FAEngine,
    area_seed,
    build_space,
    performance_seed,
    seeds_for,
)
from repro.merlin import DesignConfig


@pytest.fixture(scope="module")
def kmeans():
    return get_app("KMeans").compile()


@pytest.fixture(scope="module")
def kmeans_space(kmeans):
    return build_space(kmeans)


@pytest.fixture(scope="module")
def s2fa_result(kmeans, kmeans_space):
    return S2FAEngine(Evaluator(kmeans), kmeans_space, seed=4).run()


@pytest.fixture(scope="module")
def opentuner_result(kmeans, kmeans_space):
    return OpenTunerRuntime(Evaluator(kmeans), kmeans_space, seed=4).run()


class TestSeeds:
    def test_performance_seed_shape(self, kmeans_space):
        point = performance_seed(kmeans_space)
        assert point["L0.pipeline"] == "on"
        assert point["L0.parallel"] == 32
        assert point["bw.in_1"] == 512
        kmeans_space.validate(point)

    def test_area_seed_is_default(self, kmeans_space):
        assert area_seed(kmeans_space) == kmeans_space.default_point()

    def test_two_seeds(self, kmeans_space):
        seeds = seeds_for(kmeans_space)
        assert len(seeds) == 2
        assert seeds[0] != seeds[1]

    def test_parallel_clamped_in_restricted_space(self, kmeans_space):
        sub = kmeans_space.restrict({"L0.parallel": (1, 2, 4)})
        point = performance_seed(sub)
        assert point["L0.parallel"] == 4


class TestEvaluator:
    def test_cache_hits(self, kmeans, kmeans_space):
        evaluator = Evaluator(kmeans)
        point = kmeans_space.default_point()
        first = evaluator.evaluate(point)
        second = evaluator.evaluate(point)
        assert not first.cached and second.cached
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits == 1
        assert first.qor == second.qor

    def test_infeasible_scores_infinity(self, kmeans, kmeans_space):
        evaluator = Evaluator(kmeans)
        point = kmeans_space.default_point()
        point["L0.parallel"] = 256
        point["L0.pipeline"] = "flatten"
        point["call_L0.pipeline"] = "flatten"
        evaluation = evaluator.evaluate(point)
        assert evaluation.qor == float("inf")

    def test_minutes_charged(self, kmeans, kmeans_space):
        evaluator = Evaluator(kmeans)
        evaluation = evaluator.evaluate(kmeans_space.default_point())
        assert evaluation.minutes > 0


class TestS2FAEngine:
    def test_finds_feasible_design(self, s2fa_result):
        assert s2fa_result.best_point is not None
        assert math.isfinite(s2fa_result.best_qor)
        assert s2fa_result.best_result.feasible

    def test_respects_time_limit(self, s2fa_result):
        assert s2fa_result.termination_minutes <= 240.0 + 1e-9

    def test_trace_monotone(self, s2fa_result):
        best = float("inf")
        for point in s2fa_result.trace.points:
            assert point.best_qor <= best + 1e-12
            best = min(best, point.best_qor)

    def test_partition_reports(self, s2fa_result):
        assert len(s2fa_result.partitions) >= 2
        for report in s2fa_result.partitions:
            assert report.evaluations > 0
            assert report.end_minutes >= report.start_minutes

    def test_deterministic_given_seed(self, kmeans, kmeans_space):
        a = S2FAEngine(Evaluator(kmeans), kmeans_space, seed=9).run()
        b = S2FAEngine(Evaluator(kmeans), kmeans_space, seed=9).run()
        assert a.best_qor == b.best_qor
        assert a.termination_minutes == b.termination_minutes
        assert a.best_point == b.best_point

    def test_best_improves_on_conservative_seed(self, kmeans,
                                                kmeans_space,
                                                s2fa_result):
        evaluator = Evaluator(kmeans)
        baseline = evaluator.evaluate(kmeans_space.default_point()).qor
        assert s2fa_result.best_qor < baseline

    def test_ablation_flags(self, kmeans, kmeans_space):
        run = S2FAEngine(Evaluator(kmeans), kmeans_space, seed=4,
                         use_partitioning=False, use_seeds=False).run()
        assert len(run.partitions) == 1
        assert math.isfinite(run.best_qor)


class TestOpenTunerRuntime:
    def test_runs_to_the_time_limit(self, opentuner_result):
        assert opentuner_result.termination_minutes \
            == pytest.approx(240.0)

    def test_finds_feasible_design(self, opentuner_result):
        assert math.isfinite(opentuner_result.best_qor)

    def test_deterministic_given_seed(self, kmeans, kmeans_space):
        a = OpenTunerRuntime(Evaluator(kmeans), kmeans_space,
                             seed=2).run()
        b = OpenTunerRuntime(Evaluator(kmeans), kmeans_space,
                             seed=2).run()
        assert a.best_qor == b.best_qor

    def test_shorter_budget(self, kmeans, kmeans_space):
        run = OpenTunerRuntime(Evaluator(kmeans), kmeans_space, seed=2,
                               time_limit_minutes=30.0).run()
        assert run.termination_minutes <= 30.0 + 1e-9

    def test_work_past_the_time_limit_is_discarded(self, kmeans,
                                                   kmeans_space):
        """An iteration that ends after the limit counts for nothing,
        as in S2FAEngine: every batch here takes 10 minutes and is
        better than the last, so only the first two of three count."""
        real = Evaluator(kmeans)

        class TenMinuteEvaluator:
            evaluations = 0

            def evaluate_batch(self, points):
                self.evaluations += len(points)
                return [dataclasses.replace(
                    e, minutes=10.0, cached=False,
                    qor=1e6 - self.evaluations)
                    for e in real.evaluate_batch(points)]

        run = OpenTunerRuntime(TenMinuteEvaluator(), kmeans_space, seed=2,
                               time_limit_minutes=25.0).run()
        assert run.evaluations == 24
        assert run.best_qor == 1e6 - 16
        assert run.termination_minutes == 25.0
        assert [(p.minutes, p.best_qor) for p in run.trace.points] \
            == [(10.0, 1e6 - 8), (20.0, 1e6 - 16), (25.0, 1e6 - 16)]


class TestBestDesignQuality:
    def test_s2fa_best_config_valid(self, kmeans_space, s2fa_result):
        config = DesignConfig.from_point(s2fa_result.best_point)
        # Round-trips through the flat encoding.
        assert DesignConfig.from_point(config.to_point()).loops \
            == config.loops
