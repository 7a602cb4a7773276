"""The dataset factory and trainer: determinism, resume, fidelity."""

import math

import pytest

from repro.config import DatasetConfig
from repro.cost import FEATURE_NAMES, FEATURE_SCHEMA_VERSION
from repro.dataset import (
    build_dataset,
    read_records,
    spearman,
    top_k_recall,
    train_surrogate,
)
from repro.dataset.train import split_records, targets_for
from repro.errors import DatasetError

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _cfg(tmp_path, **kwargs):
    defaults = dict(out=str(tmp_path / "ds.jsonl"), seed=5, kernels=2,
                    configs=8, apps=False)
    defaults.update(kwargs)
    return DatasetConfig(**defaults)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dataset")
    cfg = _cfg(tmp, configs=16)
    report = build_dataset(cfg)
    records, skipped = read_records(cfg.out)
    assert skipped == 0
    return cfg, report, records


class TestBuild:
    def test_sweep_shape(self, built):
        cfg, report, records = built
        assert report.kernels == 2
        assert report.records == len(records) > 0
        assert report.minutes_total > 0
        kernels = {r.kernel for r in records}
        assert kernels == {"Ds1", "Ds2"}

    def test_records_carry_provenance(self, built):
        _, _, records = built
        for record in records:
            assert record.feature_schema == FEATURE_SCHEMA_VERSION
            assert record.estimator_version == 1
            assert len(record.features) == len(FEATURE_NAMES)
            if record.feasible:
                assert record.qor and math.isfinite(record.qor)
            else:
                assert record.qor is None

    def test_same_seed_same_dataset(self, tmp_path, built):
        cfg, _, records = built
        again = _cfg(tmp_path, configs=16)
        build_dataset(again)
        rebuilt, _ = read_records(again.out)
        assert rebuilt == records

    def test_different_seed_different_points(self, tmp_path, built):
        _, _, records = built
        other = _cfg(tmp_path, configs=16, seed=6)
        build_dataset(other)
        rebuilt, _ = read_records(other.out)
        assert {r.key() for r in rebuilt} != {r.key() for r in records}

    def test_resume_skips_existing(self, tmp_path):
        cfg = _cfg(tmp_path)
        first = build_dataset(cfg)
        second = build_dataset(cfg.replace(resume=True))
        assert second.records == 0
        assert second.skipped_existing == first.records
        records, _ = read_records(cfg.out)
        assert len(records) == first.records

    def test_resume_completes_a_torn_build(self, tmp_path):
        # Two inputs in one test (its id is pinned): a terminated corrupt
        # line, and the unterminated tail a real mid-write kill leaves —
        # the first new record must not glue onto it.
        for case, terminator in (("corrupt-line", "\n"),
                                 ("unterminated-tail", "")):
            cfg = _cfg(tmp_path / case)
            build_dataset(cfg)
            full, _ = read_records(cfg.out)
            # Chop the file mid-way (plus a torn tail) and resume.
            out = tmp_path / case / "ds.jsonl"
            lines = out.read_text().splitlines()
            keep = len(lines) // 2
            out.write_text("\n".join(lines[:keep]) + "\n"
                           + lines[keep][: 10] + terminator)
            report = build_dataset(cfg.replace(resume=True))
            assert report.skipped_existing == keep, case
            records, _ = read_records(cfg.out)
            assert {r.key() for r in records} \
                == {r.key() for r in full}, case
            assert report.records == len(records) - keep, case


class TestRankMetrics:
    def test_spearman_perfect_and_inverted(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert spearman(xs, xs) == pytest.approx(1.0)
        assert spearman(xs, list(reversed(xs))) == pytest.approx(-1.0)

    def test_spearman_handles_ties(self):
        assert -1.0 <= spearman([1.0, 1.0, 2.0], [3.0, 3.0, 9.0]) <= 1.0

    def test_spearman_degenerate(self):
        assert spearman([], []) == 0.0
        assert spearman([1.0, 1.0], [2.0, 3.0]) == 0.0

    def test_spearman_length_mismatch(self):
        with pytest.raises(DatasetError):
            spearman([1.0], [1.0, 2.0])

    def test_top_k_recall(self):
        true = [1.0, 2.0, 3.0, 4.0]
        assert top_k_recall(true, true, 2) == 1.0
        assert top_k_recall(true, list(reversed(true)), 2) == 0.0
        assert top_k_recall(true, true, 99) == 1.0  # clamps
        assert top_k_recall([], [], 3) == 0.0


class TestTargets:
    def test_infeasible_above_all_feasible(self, built):
        _, _, records = built
        targets, cutoff = targets_for(records)
        feasible = [t for r, t in zip(records, targets) if r.feasible]
        infeasible = [t for r, t in zip(records, targets)
                      if not r.feasible]
        if feasible and infeasible:
            assert max(feasible) < cutoff < min(infeasible)

    def test_split_is_deterministic(self, built):
        _, _, records = built
        a_train, a_hold = split_records(records)
        b_train, b_hold = split_records(records)
        assert a_train == b_train and a_hold == b_hold
        assert len(a_train) + len(a_hold) == len(records)


class TestTrain:
    def test_train_produces_loadable_artifact(self, tmp_path, built):
        _, _, records = built
        surrogate, report = train_surrogate(records, model="ridge")
        assert -1.0 <= report.spearman <= 1.0
        assert report.count > 0
        path = tmp_path / "model.json"
        surrogate.save(path)
        from repro.cost import SurrogateCostModel

        loaded = SurrogateCostModel.load(path)
        assert loaded.identity() == surrogate.identity()
        assert loaded.fidelity["spearman"] == report.spearman

    def test_gbdt_ranks_training_data_well(self, built):
        _, _, records = built
        surrogate, _ = train_surrogate(records, model="gbdt",
                                       n_trees=30)
        from repro.dataset import fidelity_of

        on_all = fidelity_of(surrogate.model, list(records))
        assert on_all.spearman > 0.7

    def test_unknown_model_rejected(self, built):
        _, _, records = built
        with pytest.raises(DatasetError, match="unknown surrogate"):
            train_surrogate(records, model="transformer")

    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError):
            train_surrogate([])

    def test_stale_feature_schema_rejected(self, built):
        import dataclasses

        _, _, records = built
        stale = [dataclasses.replace(records[0], feature_schema=99)]
        with pytest.raises(DatasetError, match="feature schema"):
            train_surrogate(stale)
