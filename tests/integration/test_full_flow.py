"""Full-flow integration tests: the public API from Scala to deployment."""

import math

import pytest

from repro import ExploreConfig, S2FASession
from repro.blaze import BlazeRuntime
from repro.compiler import LayoutConfig
from repro.merlin import DesignConfig, LoopConfig
from repro.spark import SparkContext

KERNEL = """
class Scale extends Accelerator[Array[Float], Array[Float]] {
  val id: String = "scale"
  val k: Float = 3.0f
  def call(in: Array[Float]): Array[Float] = {
    val out = new Array[Float](8)
    for (i <- 0 until 8) {
      out(i) = k * in(i)
    }
    out
  }
}
"""

LAYOUT = LayoutConfig(lengths={"in": 8, "out": 8})


@pytest.fixture(scope="module")
def build():
    return S2FASession(explore=ExploreConfig(seed=2)).explore(
        KERNEL, layout_config=LAYOUT, batch_size=512)


class TestBuildAccelerator:
    def test_produces_feasible_design(self, build):
        assert build.hls.feasible
        assert math.isfinite(build.dse.best_qor)
        assert build.accel_id == "scale"

    def test_chosen_config_matches_best_point(self, build):
        assert build.config.to_point() == build.dse.best_point

    def test_hls_c_source_contains_pragmas_and_kernel(self, build):
        source = build.hls_c_source()
        assert "void kernel(int N, float *in_1, float *out_1)" in source
        assert "void call(" in source

    def test_space_recorded(self, build):
        assert build.space.size() > 1000
        assert build.dse.space_size == build.space.size()

    def test_deployable_on_blaze(self, build):
        sc = SparkContext(default_parallelism=2)
        runtime = BlazeRuntime(sc)
        runtime.register(build.compiled, build.config)
        data = [[float(j + i) for j in range(8)] for i in range(20)]
        got = runtime.wrap(sc.parallelize(data)).map_acc(
            "scale").collect()
        assert got == [[3.0 * v for v in row] for row in data]


class TestGenerateHlsC:
    def test_plain_generation(self):
        source = S2FASession().hls_c(KERNEL, layout_config=LAYOUT)
        assert "#pragma" not in source
        assert "k * in_1" in source.replace("3.0f", "k") \
            or "3.0f * in_1" in source

    def test_with_config(self):
        config = DesignConfig(
            loops={"L0": LoopConfig(pipeline="on", parallel=4)})
        source = S2FASession().hls_c(KERNEL, layout_config=LAYOUT,
                                     config=config)
        assert "#pragma ACCEL pipeline" in source
        assert "factor=4" in source


class TestMotivatingExample:
    """The paper's Code 1-3 flow on the actual S-W kernel."""

    def test_code3_shape(self):
        from repro.apps import get_app

        compiled = get_app("S-W").compile()
        from repro.hlsc import kernel_to_c
        source = kernel_to_c(compiled.kernel)
        # Code 3's signature: char buffers in, flattened outputs.
        assert "void call(char *in_1, char *in_2, int *out_1, " \
            "int *out_2)" in source
        assert "void kernel(int N, char *in_1, char *in_2" in source
        assert "call(in_1 + i * 128, in_2 + i * 128" in source

    def test_dse_then_deploy(self):
        from repro.apps import get_app
        from repro.dse import Evaluator, S2FAEngine, build_space

        spec = get_app("KMeans")
        compiled = spec.compile()
        run = S2FAEngine(Evaluator(compiled), build_space(compiled),
                         seed=6, time_limit_minutes=120).run()
        assert run.best_point is not None
        config = DesignConfig.from_point(run.best_point)

        sc = SparkContext(default_parallelism=2)
        runtime = BlazeRuntime(sc)
        runtime.register(compiled, config)
        points = spec.workload(64, seed=9)
        got = runtime.wrap(sc.parallelize(points)).map_acc(
            compiled.accel_id).collect()
        assert got == [spec.reference(p) for p in points]
