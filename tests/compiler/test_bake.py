"""Counted guards for instance baking.

The compiler runs a kernel's constructor exactly once, so it bakes on the
stack-walking interpreter: lowering ``<init>`` to TAC would cost more than
the single run it serves.  These tests pin that choice by counting, not by
timing, and keep the TAC engine as the differential for baked fields.
"""

from pathlib import Path

import pytest

from repro.apps import ALL_APPS
from repro.compiler import compile_kernel
from repro.fuzz.corpus import load_regressions
from repro.jvm.tac import TACInterpreter

CORPUS = Path(__file__).resolve().parents[1] / "fuzz_corpus"

#: (source, compile_kernel keywords) for the 8 apps and the fuzz corpus.
CASES = [pytest.param(spec.scala_source,
                      dict(layout_config=spec.layout_config,
                           pattern=spec.pattern), id=spec.name)
         for spec in ALL_APPS] + [
    pytest.param(entry.source, dict(layout_config=entry.layout_config()),
                 id=entry.name)
    for entry in load_regressions(CORPUS)]


def test_compiling_the_apps_builds_no_tac_engine():
    constructions = TACInterpreter.constructions
    lowerings = TACInterpreter.lowerings
    for spec in ALL_APPS:
        compile_kernel(spec.scala_source, layout_config=spec.layout_config,
                       pattern=spec.pattern, batch_size=spec.batch_size)
    assert TACInterpreter.constructions == constructions
    assert TACInterpreter.lowerings == lowerings


@pytest.mark.parametrize("source, options", CASES)
def test_baked_fields_match_the_tac_engine(source, options):
    compiled = compile_kernel(source, **options)
    interp = TACInterpreter(compiled.registry)
    expected = interp.new_instance(compiled.name)
    interp.invoke(compiled.name, "<init>", [expected])
    # repr compares floats bit-exactly (-0.0, NaN), unlike ==.
    assert repr(compiled.instance.fields) == repr(expected.fields)
