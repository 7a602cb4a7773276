"""Invariants of the analytical model over the Merlin factors.

Every other layer trusts ``hls.estimate``; these are the properties the
DSE's reasoning rests on, checked over the eight apps' real design spaces:

* duplicating hardware never shrinks a design — resources are
  non-decreasing in every loop's parallel factor;
* ``flatten`` invalidates its sub-loops' factors (Impediment 2) — what
  the tuner proposes for them cannot move the estimate;
* a wider port never slows the transfer — ``memory_cycles`` is
  non-increasing in every buffer bit-width.

The per-point noise (clock jitter, cycle ruggedness, synthesis minutes)
is keyed by the *proposed* point on purpose, so the flatten property
compares everything the noise does not touch.
"""

from functools import lru_cache

from hypothesis import assume, given, settings, strategies as st

from repro.apps import ALL_APPS, get_app
from repro.dse.space import build_space
from repro.hls import KC705, VU9P, estimate
from repro.hls.analysis import analyze
from repro.merlin import DesignConfig

APP_NAMES = [spec.name for spec in ALL_APPS]


@lru_cache(maxsize=None)
def _app(name):
    compiled = get_app(name).compile()
    ancestors: dict[str, tuple[str, ...]] = {}

    def walk(loop, above):
        ancestors[loop.label] = above
        for child in loop.children:
            walk(child, above + (loop.label,))

    for root in analyze(compiled.kernel).roots:
        walk(root, ())
    return compiled.kernel, build_space(compiled), ancestors


@st.composite
def design_points(draw):
    kernel, space, ancestors = _app(draw(st.sampled_from(APP_NAMES)))
    point = {p.name: draw(st.sampled_from(p.values))
             for p in space.parameters}
    device = draw(st.sampled_from([VU9P, KC705]))
    return kernel, space, ancestors, point, device


def _estimate(kernel, point, device):
    return estimate(kernel, DesignConfig.from_point(point), device)


def _stepped_up(draw, space, point, kind):
    """``point`` with one ``kind`` parameter moved to its next value."""
    movable = [p for p in space.parameters if p.kind == kind
               and p.index_of(point[p.name]) + 1 < p.cardinality]
    assume(movable)
    parameter = draw(st.sampled_from(movable))
    step = parameter.values[parameter.index_of(point[parameter.name]) + 1]
    return {**point, parameter.name: step}


@settings(max_examples=150, deadline=None)
@given(design_points(), st.data())
def test_resources_never_shrink_with_parallelism(sample, data):
    kernel, space, _, point, device = sample
    wider = _stepped_up(data.draw, space, point, "parallel")
    before = _estimate(kernel, point, device).resources
    after = _estimate(kernel, wider, device).resources
    for kind in ("lut", "ff", "dsp", "bram"):
        assert getattr(after, kind) >= getattr(before, kind), (kind, wider)


@settings(max_examples=150, deadline=None)
@given(design_points(), st.data())
def test_flatten_makes_descendant_factors_dead(sample, data):
    kernel, space, ancestors, point, device = sample
    dead = [p for p in space.parameters if p.loop is not None
            and any(point[f"{above}.pipeline"] == "flatten"
                    for above in ancestors[p.loop])]
    if not dead:
        # Rare by chance alone, so force it: flatten the first root,
        # which kills every factor beneath it.
        outer = next(label for label, above in ancestors.items()
                     if not above)
        point = {**point, f"{outer}.pipeline": "flatten"}
        dead = [p for p in space.parameters if p.loop is not None
                and outer in ancestors[p.loop]]
        assume(dead)
    parameter = data.draw(st.sampled_from(dead))
    changed = {**point,
               parameter.name: data.draw(st.sampled_from(parameter.values))}
    before = _estimate(kernel, point, device)
    after = _estimate(kernel, changed, device)
    for field in ("compute_cycles", "memory_cycles", "memory_bound",
                  "resources", "utilization", "ii_top", "loops"):
        assert getattr(after, field) == getattr(before, field), \
            (field, parameter.name)


@settings(max_examples=150, deadline=None)
@given(design_points(), st.data())
def test_memory_cycles_never_grow_with_bitwidth(sample, data):
    kernel, space, _, point, device = sample
    wider = _stepped_up(data.draw, space, point, "bitwidth")
    assert _estimate(kernel, wider, device).memory_cycles \
        <= _estimate(kernel, point, device).memory_cycles, wider
