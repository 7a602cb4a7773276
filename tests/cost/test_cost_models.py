"""The CostModel protocol: analytical parity, surrogate artifacts and
the exception firewall."""

import json

import pytest

from repro.apps import get_app
from repro.cost import (
    AnalyticalCostModel,
    SURROGATE_MINUTES,
    SurrogateCostModel,
    train_ridge,
)
from repro.cost.features import FEATURE_NAMES
from repro.cost.surrogate import ARTIFACT_FORMAT, ARTIFACT_VERSION
from repro.dse.space import build_space
from repro.errors import CostModelError
from repro.hls.device import VU9P
from repro.hls.estimator import ESTIMATOR_VERSION, estimate
from repro.merlin.config import DesignConfig


@pytest.fixture(scope="module")
def kmeans():
    return get_app("KMeans").compile()


@pytest.fixture(scope="module")
def default_point(kmeans):
    return build_space(kmeans).default_point()


def _toy_surrogate(**kwargs):
    width = len(FEATURE_NAMES)
    model = train_ridge([[float(i)] * width for i in range(8)],
                        [float(i) for i in range(8)])
    return SurrogateCostModel(model, **kwargs)


class TestAnalytical:
    def test_identity_pins_estimator_version(self):
        assert AnalyticalCostModel().identity() \
            == f"analytical:v{ESTIMATOR_VERSION}"

    def test_score_matches_direct_estimate(self, kmeans, default_point):
        config = DesignConfig.from_point(default_point)
        qor = AnalyticalCostModel().score(kmeans.kernel, config)
        direct = estimate(kmeans.kernel, config)
        assert qor.result is not None
        assert qor.result.cycles == direct.cycles
        assert qor.value == direct.normalized_cycles
        assert qor.minutes == direct.synthesis_minutes

    def test_analytical_is_persistable(self):
        assert AnalyticalCostModel().persistable

    def test_safe_score_firewalls_bad_points(self, kmeans):
        qor = AnalyticalCostModel().safe_score(
            kmeans.kernel, {"L0.parallel": "garbage"})
        assert not qor.feasible
        assert qor.value == float("inf")
        result = qor.to_result(VU9P)
        assert result.infeasible_reason.startswith("evaluation error")


class TestSurrogate:
    def test_predictions_are_cheap_and_fast(self, kmeans, default_point):
        surrogate = _toy_surrogate()
        qor = surrogate.safe_score(kmeans.kernel, default_point)
        assert qor.minutes == SURROGATE_MINUTES
        assert qor.source == surrogate.identity()

    def test_long_lived_model_outlives_its_kernels(self):
        # A serving or dataset-building process scores kernel after
        # kernel with one model.  Each clone below dies before the next
        # is made, so CPython hands the next one the same address: a
        # per-kernel memo keyed by id() would score it with the dead
        # kernel's analysis.
        cases = []
        for name in ("KMeans", "LR", "AES", "S-W"):
            compiled = get_app(name).compile()
            config = DesignConfig.from_point(
                build_space(compiled).default_point())
            want = _toy_surrogate().score(compiled.kernel.clone(), config)
            cases.append((name, compiled.kernel, config, want.cycles))
        surrogate = _toy_surrogate()
        last_at: dict[int, str] = {}
        reused = False
        for name, original, config, want in cases * 5:
            kernel = original.clone()
            reused |= last_at.get(id(kernel), name) != name
            last_at[id(kernel)] = name
            assert surrogate.score(kernel, config).cycles == want, name
            del kernel
        assert reused, "no address was reused: the test lost its subject"

    def test_never_persistable(self):
        assert not _toy_surrogate().persistable

    def test_identity_changes_with_the_model(self):
        a = _toy_surrogate()
        other = train_ridge([[float(i)] * len(FEATURE_NAMES)
                             for i in range(8)],
                            [float(2 * i) for i in range(8)])
        b = SurrogateCostModel(other)
        assert a.identity() != b.identity()
        assert a.identity().startswith("surrogate:ridge:fs")

    def test_cutoff_marks_infeasible(self, kmeans, default_point):
        low = _toy_surrogate(infeasible_cutoff=-1e9)
        qor = low.safe_score(kmeans.kernel, default_point)
        assert not qor.feasible and qor.value == float("inf")
        reason = qor.to_result(VU9P).infeasible_reason
        assert "predicted infeasible" in reason

    def test_artifact_round_trip(self, tmp_path, kmeans, default_point):
        surrogate = _toy_surrogate(infeasible_cutoff=50.0,
                                   fidelity={"spearman": 0.9})
        path = tmp_path / "model.json"
        surrogate.save(path)
        loaded = SurrogateCostModel.load(path)
        assert loaded.identity() == surrogate.identity()
        a = loaded.safe_score(kmeans.kernel, default_point)
        b = surrogate.safe_score(kmeans.kernel, default_point)
        assert a.value == b.value

    def test_artifact_validation(self, tmp_path):
        surrogate = _toy_surrogate()
        data = surrogate.to_artifact()
        for corrupt in (
                {**data, "format": "something-else"},
                {**data, "version": ARTIFACT_VERSION + 1},
                {**data, "feature_schema": 99},
        ):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(corrupt))
            with pytest.raises(CostModelError):
                SurrogateCostModel.load(path)
        assert data["format"] == ARTIFACT_FORMAT

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CostModelError):
            SurrogateCostModel.load(tmp_path / "nope.json")
