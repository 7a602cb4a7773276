"""Public API surface snapshot.

Breaking this test means the package's public contract changed: either
revert the change or update the snapshot *and* ``docs/api.md`` together.
"""

import inspect

import repro
import repro.cost
import repro.dataset
import repro.obs
import repro.streaming

TOP_LEVEL = {
    "AcceleratorBuild",
    "DatasetConfig",
    "Device",
    "DeviceRegistry",
    "DeviceSweep",
    "ExploreConfig",
    "RunOutcome",
    "RuntimeConfig",
    "S2FAError",
    "S2FASession",
    "StreamConfig",
    "UnknownDeviceError",
    "device_names",
    "get_device",
    "__version__",
}

STREAMING = {
    "BACKPRESSURE_LAGGING",
    "BACKPRESSURE_OK",
    "BackpressureSignal",
    "DStream",
    "JSONLSink",
    "MemorySink",
    "SeededSource",
    "SourceStream",
    "STREAM_CHECKPOINT_KIND",
    "STREAM_CHECKPOINT_VERSION",
    "StreamCheckpointStore",
    "StreamContext",
    "StreamOutcome",
    "decode",
    "encode",
    "fingerprint",
}

COST = {
    "QoR",
    "CostModel",
    "AnalyticalCostModel",
    "SurrogateCostModel",
    "SURROGATE_MINUTES",
    "FeatureVector",
    "FEATURE_NAMES",
    "FEATURE_SCHEMA_VERSION",
    "extract_features",
    "RidgeModel",
    "GBDTModel",
    "train_ridge",
    "train_gbdt",
    "load_model",
}

DATASET = {
    "DATASET_SCHEMA_VERSION",
    "DatasetRecord",
    "DatasetWriter",
    "read_records",
    "BuildReport",
    "build_dataset",
    "dataset_kernels",
    "sample_points",
    "FidelityReport",
    "fidelity_of",
    "spearman",
    "top_k_recall",
    "train_surrogate",
}

OBS = {
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "chrome_trace_document",
    "write_chrome_trace",
    "write_jsonl",
    "spans_from_jsonl",
    "load_trace",
    "validate_chrome_trace",
    "flamegraph",
    "stage_breakdown",
    "summarize",
}

SESSION_METHODS = {"compile", "explore", "explore_devices", "run",
                   "stream", "hls_c", "resolve", "export_trace",
                   "trace_summary"}


def test_top_level_all_snapshot():
    assert set(repro.__all__) == TOP_LEVEL


def test_top_level_symbols_resolve():
    for name in TOP_LEVEL:
        assert getattr(repro, name) is not None


def test_obs_all_snapshot():
    assert set(repro.obs.__all__) == OBS


def test_session_public_methods():
    public = {name for name, _ in inspect.getmembers(repro.S2FASession)
              if not name.startswith("_")}
    assert SESSION_METHODS <= public


def test_cost_all_snapshot():
    assert set(repro.cost.__all__) == COST


def test_dataset_all_snapshot():
    assert set(repro.dataset.__all__) == DATASET


def test_explore_config_fields():
    fields = set(repro.ExploreConfig.__dataclass_fields__)
    assert fields == {"seed", "time_limit_minutes", "cache_dir",
                      "surrogate", "prune_fraction", "device"}


def test_dataset_config_fields():
    fields = set(repro.DatasetConfig.__dataclass_fields__)
    assert fields == {"out", "seed", "kernels", "configs", "apps",
                      "cache_dir", "resume"}


def test_dse_exports_one_evaluator():
    import repro.dse

    assert hasattr(repro.dse, "Evaluator")
    assert not hasattr(repro.dse, "ParallelEvaluator")


def test_streaming_all_snapshot():
    assert set(repro.streaming.__all__) == STREAMING


def test_stream_config_fields():
    fields = set(repro.StreamConfig.__dataclass_fields__)
    assert fields == {"batch_records", "interval_seconds",
                      "total_records", "max_batches", "data_seed",
                      "max_lag_intervals", "sink", "checkpoint_dir",
                      "resume", "runtime"}


def test_runtime_config_fields():
    fields = set(repro.RuntimeConfig.__dataclass_fields__)
    assert fields == {"partitions", "fault_plan", "fault_seed", "engine"}
