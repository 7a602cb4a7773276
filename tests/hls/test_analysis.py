"""The per-kernel analysis contract: analyse once, estimate many times.

* parity — an estimate on a kernel analysed once equals an estimate on a
  fresh ``clone()`` analysed for that point alone;
* staleness — copies never inherit an analysis, so a transformed clone is
  always analysed afresh;
* call count — one exploration walks each kernel function's AST once per
  process (a deterministic guard, not a timing floor);
* lifetime — the analysis dies with its kernel.
"""

import copy
import gc
import pickle
import random
import weakref

import pytest

import repro.hlsc.analysis as hlsc_analysis
from repro import ExploreConfig, S2FASession
from repro.apps import ALL_APPS
from repro.dse.space import build_space
from repro.hls import KC705, VU9P, estimate
from repro.hls.analysis import analyze
from repro.hlsc import CKernel, INT, VOID, assign_loop_labels
from repro.hlsc.builder import (
    add,
    assign,
    for_loop,
    function,
    idx,
    mul,
    param,
)
from repro.merlin import DesignConfig, apply_config, interchange_loops


@pytest.mark.parametrize("spec", ALL_APPS, ids=lambda spec: spec.name)
def test_estimate_on_shared_analysis_equals_fresh_clone(spec):
    compiled = spec.compile()
    space = build_space(compiled)
    rng = random.Random(f"analysis-parity:{spec.name}")
    for _ in range(64):
        config = DesignConfig.from_point(space.random_point(rng))
        for device in (VU9P, KC705):
            shared = estimate(compiled.kernel, config, device)
            fresh = estimate(compiled.kernel.clone(), config, device)
            # HLSResult equality covers resources, utilization and the
            # per-loop reports, in order.
            assert shared == fresh, config.describe()
            assert shared.loops


def _nest_kernel():
    """out[i*4+j] = in[j*8+i]: a perfect, interchangeable 8x4 nest."""
    body = assign(idx("out", add(mul("i", 4), "j")),
                  idx("in", add(mul("j", 8), "i")))
    fn = function(
        "kernel", VOID,
        [param("N", INT), param("in", INT, pointer=True),
         param("out", INT, pointer=True)],
        for_loop("i", 8, for_loop("j", 4, body)))
    assign_loop_labels(fn)
    return CKernel(functions=[fn], top="kernel")


class TestStaleness:
    def test_copies_start_without_an_analysis(self):
        kernel = _nest_kernel()
        analysis = analyze(kernel)
        assert analyze(kernel) is analysis
        for copied in (kernel.clone(), copy.deepcopy(kernel),
                       pickle.loads(pickle.dumps(kernel))):
            assert copied.analysis is None
            assert copied == kernel
        assert kernel.analysis is analysis

    def test_interchanged_clone_is_analysed_afresh(self):
        kernel = _nest_kernel()
        before = analyze(kernel)
        swapped = kernel.clone()
        interchange_loops(swapped.top_function, "L0")
        after = analyze(swapped)
        assert [loop.trip_count for loop in before.loops] == [8, 4]
        assert [loop.trip_count for loop in after.loops] == [4, 8]
        config = DesignConfig().with_loop("L0", parallel=8)
        assert estimate(swapped, config) != estimate(kernel, config)
        assert estimate(swapped, config) \
            == estimate(swapped.clone(), config)

    def test_apply_config_result_is_analysed_afresh(self):
        compiled = ALL_APPS[0].compile()
        analyze(compiled.kernel)
        config = DesignConfig.from_point(
            build_space(compiled).default_point())
        applied = apply_config(compiled.kernel, config)
        assert applied.analysis is None
        assert analyze(applied) is not compiled.kernel.analysis


class TestCallCount:
    APP = "KMeans"

    @pytest.fixture
    def tree_builds(self, monkeypatch):
        """Counts ``build_loop_tree`` calls made in this process."""
        calls = []
        real = hlsc_analysis.build_loop_tree

        def counting(func):
            calls.append(func.name)
            return real(func)

        monkeypatch.setattr(hlsc_analysis, "build_loop_tree", counting)
        return calls

    def test_one_exploration_walks_the_ast_once(self, tree_builds):
        session = S2FASession(ExploreConfig(seed=3, time_limit_minutes=60),
                              trace=True)
        compiled = session.compile(self.APP)
        hlsc_analysis.kernel_loop_tree(compiled.kernel)
        one_analysis = list(tree_builds)
        assert one_analysis          # top function + each helper call site
        del tree_builds[:]
        build = session.explore(self.APP)
        assert build.dse.evaluations > 10
        assert tree_builds == one_analysis
        assert [s.name for s in session.tracer.iter_spans()
                ].count("hls.analyze") == 1


class TestLifetime:
    def test_analysis_dies_with_its_kernel(self):
        build = S2FASession(
            ExploreConfig(seed=3, time_limit_minutes=60)).explore("LR")
        analysis = weakref.ref(build.compiled.kernel.analysis)
        assert analysis() is not None
        del build
        gc.collect()
        assert analysis() is None

    def test_analysis_holds_no_ast(self):
        compiled = ALL_APPS[0].compile()
        kernel = compiled.kernel.clone()
        analysis = analyze(kernel)
        alive = weakref.ref(kernel.top_function)
        del kernel
        gc.collect()
        assert alive() is None
        assert analysis.loops       # the records stand on their own


class TestObservability:
    def test_one_span_and_counter_per_analysis(self):
        from repro.obs import Tracer

        tracer = Tracer()
        kernel = ALL_APPS[0].compile().kernel.clone()
        config = DesignConfig()
        for _ in range(5):
            estimate(kernel, config, tracer=tracer)
        names = [span.name for span in tracer.iter_spans()]
        assert names.count("hls.analyze") == 1
        assert names.count("hls.estimate") == 5
        assert names[0] == "hls.analyze"
        assert tracer.metrics.counter("hls.analyses") == 1
        assert tracer.metrics.counter("hls.estimates") == 5
