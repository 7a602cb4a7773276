"""S2FASession facade: resolution, parity with legacy entry points,
deprecation shims, config validation, and trace plumbing."""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro import ExploreConfig, RunOutcome, RuntimeConfig, S2FASession
from repro.apps import ALL_APPS, get_app
from repro.apps.base import AppSpec
from repro.errors import BlazeError, DSEError, S2FAError
from repro.hlsc.printer import kernel_to_c
from repro.obs import Tracer, validate_chrome_trace

KERNEL = """
class Inc extends Accelerator[Int, Int] {
  val id: String = "inc"
  def call(in: Int): Int = in + 1
}
"""

EXPLORE = ExploreConfig(seed=3, time_limit_minutes=60.0)


class TestResolution:
    def test_name_is_case_insensitive(self):
        assert S2FASession.resolve("KMeans") is get_app("KMeans")
        assert S2FASession.resolve("kmeans") is get_app("KMeans")
        assert S2FASession.resolve("s-w") is get_app("S-W")

    def test_spec_passes_through(self):
        spec = get_app("AES")
        assert S2FASession.resolve(spec) is spec

    def test_raw_source_resolves_to_none(self):
        assert S2FASession.resolve(KERNEL) is None

    def test_unknown_name_lists_known_apps(self):
        with pytest.raises(S2FAError, match="known apps"):
            S2FASession.resolve("NotAnApp")

    def test_non_string_rejected(self):
        with pytest.raises(S2FAError, match="expected an app"):
            S2FASession.resolve(42)


class TestCompile:
    @pytest.mark.parametrize("spec", ALL_APPS, ids=lambda s: s.name)
    def test_matches_legacy_compile_for_every_app(self, spec):
        facade = S2FASession().compile(spec)
        legacy = spec.compile()
        assert facade.accel_id == legacy.accel_id
        assert facade.pattern == legacy.pattern
        assert facade.batch_size == legacy.batch_size
        assert kernel_to_c(facade.kernel) == kernel_to_c(legacy.kernel)

    def test_session_caches_identical_requests(self):
        session = S2FASession()
        first = session.compile("KMeans")
        assert session.compile("kmeans") is first

    def test_raw_source_compiles(self):
        compiled = S2FASession().compile(KERNEL)
        assert compiled.accel_id == "inc"


class TestExploreParity:
    def test_tracing_does_not_change_results(self):
        plain = S2FASession(explore=EXPLORE).explore(KERNEL)
        traced = S2FASession(explore=EXPLORE, trace=True).explore(KERNEL)
        assert traced.dse.best_point == plain.dse.best_point
        assert traced.dse.evaluations == plain.dse.evaluations
        assert traced.dse.termination_minutes \
            == plain.dse.termination_minutes


def test_explore_imports_no_process_machinery():
    """Evaluation is in-process: a whole exploration in a fresh
    interpreter must not even import the process-pool modules."""
    code = ("import sys, repro\n"
            "repro.S2FASession().explore('kmeans')\n"
            "loaded = {'multiprocessing', 'concurrent.futures.process'}"
            " & set(sys.modules)\n"
            "assert not loaded, loaded\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr


class TestShims:
    def test_facade_itself_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            S2FASession().hls_c(KERNEL)


class TestRun:
    def test_run_matches_jvm(self):
        outcome = S2FASession().run("KMeans", tasks=24)
        assert isinstance(outcome, RunOutcome)
        assert outcome.matched
        assert outcome.app == "KMeans"
        assert outcome.task_count == 24
        assert outcome.partitions == 4
        assert outcome.metrics.accel_tasks > 0

    def test_run_with_faults_still_matches(self):
        runtime = RuntimeConfig(
            fault_plan="transient=0.3,hang=0.1,corrupt=0.2,lose_after=5",
            fault_seed=7)
        outcome = S2FASession(runtime=runtime).run("KMeans", tasks=24)
        assert outcome.matched
        assert "seed=7" in outcome.fault_plan.describe()

    def test_run_with_explored_config(self):
        session = S2FASession(explore=EXPLORE)
        build = session.explore("LR")
        outcome = session.run("LR", tasks=16, config=build.config)
        assert outcome.matched

    def test_raw_source_rejected(self):
        with pytest.raises(S2FAError, match="built-in application"):
            S2FASession().run(KERNEL)


class TestConfigs:
    def test_explore_config_validates(self):
        with pytest.raises(DSEError, match="prune_fraction"):
            ExploreConfig(prune_fraction=1.0)
        with pytest.raises(DSEError, match="time_limit"):
            ExploreConfig(time_limit_minutes=0)

    def test_runtime_config_validates(self):
        with pytest.raises(BlazeError, match="partitions"):
            RuntimeConfig(partitions=0)
        with pytest.raises(S2FAError, match="fault plan"):
            RuntimeConfig(fault_plan="boom=1")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExploreConfig().seed = 5

    def test_replace_revalidates(self):
        cfg = ExploreConfig().replace(time_limit_minutes=30.0)
        assert cfg.time_limit_minutes == 30.0
        with pytest.raises(DSEError):
            cfg.replace(time_limit_minutes=-1.0)

    def test_runtime_policy_mirror(self):
        from repro.blaze.runtime import OffloadPolicy

        assert RuntimeConfig(partitions=2).policy() == OffloadPolicy()


class TestTracing:
    def test_traced_pipeline_exports_valid_chrome_trace(self, tmp_path):
        import json

        session = S2FASession(explore=EXPLORE, trace=True)
        session.explore(KERNEL)
        session.run("KMeans", tasks=16)
        path = tmp_path / "trace.json"
        spans = session.export_trace(str(path))
        assert spans > 0
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == []
        names = {e["name"] for e in document["traceEvents"]
                 if e["ph"] == "X"}
        for required in ("pipeline.explore", "pipeline.run",
                        "compile.kernel", "dse.run", "dse.batch",
                        "hls.estimate", "blaze.offload"):
            assert required in names, f"missing {required} span"
        summary = session.trace_summary(top=5)
        assert "Per-stage time breakdown" in summary

    def test_export_requires_tracing(self, tmp_path):
        with pytest.raises(S2FAError, match="tracing disabled"):
            S2FASession().export_trace(str(tmp_path / "x.json"))

    def test_shared_tracer_accepted(self):
        tracer = Tracer()
        session = S2FASession(tracer=tracer)
        session.compile("AES")
        assert any(s.name == "pipeline.compile"
                   for s in tracer.iter_spans())
