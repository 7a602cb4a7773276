"""Differential oracle: JVM-interpreted Scala vs C-interpreted HLS-C.

Runs one kernel through both halves of the S2FA runtime on the same
tasks and demands *bit-identical* results.  Both paths compute in the
same precision with the same operation order, so any divergence is a
compiler/serializer/executor bug, never rounding.

Since the flattened engines landed (:mod:`repro.jvm.tac`,
:mod:`repro.fpga.flat`) the oracle cross-checks a **2x2 engine
matrix**: every kernel runs on both JVM engines (stack walker and TAC)
and both C engines (tree walker and flat), and the engines of each pair
must agree bit-for-bit *including trap type and message* before the
JVM-vs-C comparison happens.  A same-side divergence is classified as
the ``"engine"`` stage — an interpreter rewrite bug, distinct from a
compiler bug.

Engine construction is hoisted out of the per-case loop: compiled
kernels and their four engines live in a small LRU keyed on
``(source, layout, batch_size, max_steps)``, so corpus replays,
minimizer predicates, and metamorphic re-runs of the same case pay
compilation + engine setup once (see ``tests/fuzz/test_oracle.py``
for the regression test pinning this).

Failures are classified by pipeline stage so the minimizer can require a
shrunken candidate to fail *the same way* (a kernel that stops compiling
is not a reproduction of an output mismatch).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..blaze import make_deserializer, make_serializer
from ..blaze.runtime import _JVMTaskRunner
from ..compiler import compile_kernel
from ..compiler.interface import LayoutConfig
from ..fpga import KernelExecutor
from ..fpga.flat import FlatKernelExecutor

#: pipeline stages a differential run can fail in, in order.  "engine"
#: is a divergence between the two JVM engines or the two C engines.
STAGES = ("compile", "jvm", "serialize", "execute", "deserialize",
          "engine", "compare")


@dataclass
class DifferentialOutcome:
    """Result of one differential run."""

    ok: bool
    stage: Optional[str] = None      # failing stage, None when ok
    detail: str = ""                 # exception type/message or diff
    expected: Optional[list] = None  # JVM outputs (when both ran)
    actual: Optional[list] = None    # HLS-C outputs (when both ran)
    compiled: object = None

    @property
    def signature(self) -> tuple:
        """Stable identity of the failure for minimization."""
        if self.ok:
            return ("ok",)
        kind = self.detail.split(":", 1)[0] if self.stage != "compare" \
            else "mismatch"
        return (self.stage, kind)


def bits_equal(a: object, b: object) -> bool:
    """Bit-identical equality: exact for ints, NaN==NaN for floats."""
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(
            bits_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return type(a) is type(b) and a == b


def outputs_equal(expected: list, actual: list) -> bool:
    return bits_equal(expected, actual)


# ----------------------------------------------------------------------
# Hoisted engine construction (one build per distinct case, LRU-cached)
# ----------------------------------------------------------------------

class OracleEngines:
    """One compiled kernel plus all four execution engines.

    Built once per distinct ``(source, layout, batch_size, max_steps)``
    case and reused across every differential run of that case: corpus
    replays, the minimizer's per-candidate predicate evaluations, and
    the metamorphic checker's baseline re-runs.  Kernel ``call`` methods
    are pure functions of their task (the C path has no cross-batch
    state, so a stateful kernel would already fail the oracle), which is
    what makes reuse sound.
    """

    def __init__(self, compiled, max_steps: int):
        self.compiled = compiled
        self.max_steps = max_steps
        self.stack_runner = _JVMTaskRunner(compiled, engine="stack")
        self.tac_runner = _JVMTaskRunner(compiled, engine="tac")
        # Module-level class lookups so tests can monkeypatch either.
        self.tree_executor = KernelExecutor(compiled.kernel,
                                            max_steps=max_steps)
        self.flat_executor = FlatKernelExecutor(compiled.kernel,
                                                max_steps=max_steps)
        self.serialize = make_serializer(compiled.layout)
        self.deserialize = make_deserializer(compiled.layout)


#: LRU of built engines; capacity bounds memory across long campaigns
#: (every fuzz iteration is a distinct kernel, so the cache pays off on
#: *repeat* runs of one case, not across the campaign).
ENGINE_CACHE_CAPACITY = 64

_engine_cache: "OrderedDict[tuple, OracleEngines]" = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def engines_for(source: str,
                layout_config: Optional[LayoutConfig],
                batch_size: int, max_steps: int) -> OracleEngines:
    """The (cached) engines for one differential case.

    Compilation errors propagate to the caller (classified there as the
    ``"compile"`` stage); only successful builds are cached.
    """
    global _cache_hits, _cache_misses
    key = (source, repr(layout_config), batch_size, max_steps)
    engines = _engine_cache.get(key)
    if engines is not None:
        _engine_cache.move_to_end(key)
        _cache_hits += 1
        return engines
    _cache_misses += 1
    compiled = compile_kernel(source, layout_config=layout_config,
                              batch_size=batch_size)
    engines = OracleEngines(compiled, max_steps)
    _engine_cache[key] = engines
    while len(_engine_cache) > ENGINE_CACHE_CAPACITY:
        _engine_cache.popitem(last=False)
    return engines


def engine_cache_stats() -> dict:
    return {"size": len(_engine_cache), "hits": _cache_hits,
            "misses": _cache_misses}


def clear_engine_cache() -> None:
    global _cache_hits, _cache_misses
    _engine_cache.clear()
    _cache_hits = 0
    _cache_misses = 0


# ----------------------------------------------------------------------
# The differential run
# ----------------------------------------------------------------------

def _err_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_jvm(runner, tasks: list):
    """``(outputs, None)`` or ``(None, error_text)``."""
    try:
        return [runner.call(task) for task in tasks], None
    except Exception as exc:
        return None, _err_text(exc)


def _run_c(executor, buffers: dict, n_tasks: int) -> Optional[str]:
    """``None`` on success, else the error text."""
    try:
        executor.run(buffers, n_tasks)
        return None
    except Exception as exc:
        return _err_text(exc)


def _buffers_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(
        bits_equal(a[name], b[name]) for name in a)


def run_differential(source: str, tasks: list, *,
                     layout_config: Optional[LayoutConfig] = None,
                     batch_size: int = 64,
                     max_steps: int = 5_000_000) -> DifferentialOutcome:
    """Run ``source`` on ``tasks`` through both paths and compare.

    The JVM side runs on both the stack and TAC engines, the C side on
    both the tree and flat executors; each pair must agree bit-for-bit
    (same outputs, or same exception type and message) before the
    cross-path comparison.
    """
    try:
        engines = engines_for(source, layout_config, batch_size,
                              max_steps)
    except Exception as exc:
        return DifferentialOutcome(
            ok=False, stage="compile", detail=_err_text(exc))
    compiled = engines.compiled

    # JVM side: stack walker (the reference) vs TAC.
    expected, stack_err = _run_jvm(engines.stack_runner, tasks)
    tac_out, tac_err = _run_jvm(engines.tac_runner, tasks)
    if stack_err != tac_err:
        return DifferentialOutcome(
            ok=False, stage="engine",
            detail=f"jvm-trap-divergence: "
                   f"stack={stack_err!r} tac={tac_err!r}",
            compiled=compiled)
    if stack_err is None and not outputs_equal(expected, tac_out):
        first_bad = next(
            (i for i, (e, a) in enumerate(zip(expected, tac_out))
             if not bits_equal(e, a)), None)
        return DifferentialOutcome(
            ok=False, stage="engine",
            detail=f"jvm-divergence: engines diverge at task {first_bad}",
            expected=expected, actual=tac_out, compiled=compiled)
    if stack_err is not None:
        return DifferentialOutcome(
            ok=False, stage="jvm", detail=stack_err, compiled=compiled)

    # C side: two independent serializations (executors mutate buffers).
    try:
        buffers = engines.serialize(tasks)
        flat_buffers = engines.serialize(tasks)
    except Exception as exc:
        return DifferentialOutcome(
            ok=False, stage="serialize", detail=_err_text(exc),
            compiled=compiled)

    tree_err = _run_c(engines.tree_executor, buffers, len(tasks))
    flat_err = _run_c(engines.flat_executor, flat_buffers, len(tasks))
    if tree_err != flat_err:
        return DifferentialOutcome(
            ok=False, stage="engine",
            detail=f"c-trap-divergence: "
                   f"tree={tree_err!r} flat={flat_err!r}",
            compiled=compiled)
    if tree_err is None and not _buffers_equal(buffers, flat_buffers):
        bad = sorted(name for name in buffers
                     if not bits_equal(buffers[name],
                                       flat_buffers.get(name)))
        return DifferentialOutcome(
            ok=False, stage="engine",
            detail=f"c-divergence: engines diverge in buffers {bad}",
            compiled=compiled)
    if tree_err is not None:
        return DifferentialOutcome(
            ok=False, stage="execute", detail=tree_err,
            compiled=compiled)

    try:
        actual = engines.deserialize(buffers, len(tasks))
    except Exception as exc:
        return DifferentialOutcome(
            ok=False, stage="deserialize", detail=_err_text(exc),
            compiled=compiled)

    if not outputs_equal(expected, actual):
        first_bad = next(
            (i for i, (e, a) in enumerate(zip(expected, actual))
             if not bits_equal(e, a)), None)
        return DifferentialOutcome(
            ok=False, stage="compare",
            detail=f"outputs diverge at task {first_bad}",
            expected=expected, actual=actual, compiled=compiled)
    return DifferentialOutcome(ok=True, expected=expected, actual=actual,
                               compiled=compiled)
