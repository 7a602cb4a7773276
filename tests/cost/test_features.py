"""Feature extraction: stable schema, determinism, config sensitivity."""

import math

import pytest

from repro.apps import get_app
from repro.cost import (
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    FeatureVector,
    extract_features,
)
from repro.dse.space import build_space
from repro.errors import CostModelError
from repro.hls.device import KC705, VU9P
from repro.merlin.config import DesignConfig


@pytest.fixture(scope="module")
def kmeans():
    return get_app("KMeans").compile()


@pytest.fixture(scope="module")
def default_config(kmeans):
    return DesignConfig.from_point(build_space(kmeans).default_point())


class TestSchema:
    def test_schema_is_version_two(self):
        assert FEATURE_SCHEMA_VERSION == 2

    def test_names_are_unique_and_prefixed(self):
        assert len(set(FEATURE_NAMES)) == len(FEATURE_NAMES)
        assert all(n.split("_")[0] in ("k", "c", "p", "d")
                   for n in FEATURE_NAMES)

    def test_device_features_are_appended_last(self):
        # Schema rule: append, never reorder — the v1 prefix must be
        # intact, with the device block at the tail.
        d_idx = [i for i, n in enumerate(FEATURE_NAMES)
                 if n.startswith("d_")]
        assert d_idx == list(range(len(FEATURE_NAMES) - len(d_idx),
                                   len(FEATURE_NAMES)))

    def test_vector_length_is_validated(self):
        with pytest.raises(CostModelError):
            FeatureVector(values=(1.0, 2.0))


class TestExtraction:
    def test_vector_matches_schema(self, kmeans, default_config):
        vec = extract_features(kmeans.kernel, default_config)
        assert len(vec.values) == len(FEATURE_NAMES)
        assert vec.schema_version == FEATURE_SCHEMA_VERSION
        assert all(math.isfinite(v) for v in vec.values)

    def test_extraction_is_deterministic(self, kmeans, default_config):
        a = extract_features(kmeans.kernel, default_config)
        b = extract_features(kmeans.kernel, default_config)
        assert a.values == b.values

    def test_analysis_reuse_matches_fresh(self, kmeans, default_config):
        a = extract_features(kmeans.kernel, default_config)
        assert kmeans.kernel.analysis is not None
        fresh = kmeans.kernel.clone()
        assert fresh.analysis is None
        b = extract_features(fresh, default_config)
        assert a.values == b.values

    def test_device_moves_only_device_features(self, kmeans,
                                               default_config):
        big = extract_features(kmeans.kernel, default_config, VU9P)
        small = extract_features(kmeans.kernel, default_config, KC705)
        assert big.values != small.values
        for i, name in enumerate(FEATURE_NAMES):
            if name.startswith("d_"):
                assert big.values[i] > small.values[i]
            else:
                assert big.values[i] == small.values[i]

    def test_parallel_knob_moves_config_features(self, kmeans):
        space = build_space(kmeans)
        base = space.default_point()
        vec_base = extract_features(kmeans.kernel,
                                    DesignConfig.from_point(base))
        bumped = dict(base)
        for name in bumped:
            if name.endswith(".parallel"):
                bumped[name] = 16
                break
        vec_bumped = extract_features(kmeans.kernel,
                                      DesignConfig.from_point(bumped))
        assert vec_base.values != vec_bumped.values
        # Kernel-static features must not move with the config.
        k_idx = [i for i, n in enumerate(FEATURE_NAMES)
                 if n.startswith("k_")]
        for i in k_idx:
            assert vec_base.values[i] == vec_bumped.values[i]
