"""Execution-engine selection for the two functional interpreters.

The repo carries two implementations of each functional execution path:

* **JVM bytecode** — the flattened three-address-code engine
  (:class:`~repro.jvm.tac.TACInterpreter`) and the original stack
  walker (:class:`~repro.jvm.interpreter.Interpreter`);
* **HLS-C kernels** — the closure-compiled flat executor
  (:class:`~repro.fpga.flat.FlatKernelExecutor`) and the original tree
  walker (:class:`~repro.fpga.executor.KernelExecutor`).

The flattened engines are the default wherever code runs many times
(Blaze fallback, the FPGA board model, benchmarks); the stack/tree
walkers survive as differential oracles — the fuzz oracle cross-checks
every kernel on all four engines, and the equivalence batteries in
``tests/jvm/test_tac_equivalence.py`` /
``tests/fpga/test_flat_equivalence.py`` pin bit-identity.  Code that
runs exactly once — the kernel constructor the compiler bakes — runs on
the stack walker, because lowering it to TAC costs more than the one
run it would speed up.

An explicit ``engine=`` argument selects; without one the default
(``"tac"``) runs.  Both names are deliberately JVM-flavoured — ``"tac"`` selects the
flattened engine and ``"stack"`` the original one on *both* paths, so
one knob switches the whole pipeline.
"""

from __future__ import annotations

from typing import Optional

from .errors import S2FAError

#: Recognized engine names: ``"tac"`` = flattened register-IR engines,
#: ``"stack"`` = the original stack/tree walkers.
ENGINES = ("tac", "stack")

DEFAULT_ENGINE = "tac"


def resolve_engine(engine: Optional[str] = None) -> str:
    """The effective engine name (``None`` -> :data:`DEFAULT_ENGINE`).

    Raises :class:`~repro.errors.S2FAError` on an unknown name so a bad
    knob fails loudly at construction time.
    """
    if engine is None:
        return DEFAULT_ENGINE
    name = str(engine).lower()
    if name not in ENGINES:
        raise S2FAError(
            f"unknown execution engine {engine!r}; "
            f"expected one of: {', '.join(ENGINES)}")
    return name


def make_jvm_interpreter(registry, *, cost_model=None,
                         max_steps: int = 200_000_000,
                         engine: Optional[str] = None):
    """A JVM execution engine over ``registry``.

    Returns a :class:`~repro.jvm.tac.TACInterpreter` (default) or the
    stack :class:`~repro.jvm.interpreter.Interpreter`; the two share
    their public API (``new_instance`` / ``invoke``) and are
    bit-identical including trap types and messages.
    """
    if resolve_engine(engine) == "tac":
        from .jvm.tac import TACInterpreter

        return TACInterpreter(registry, cost_model=cost_model,
                              max_steps=max_steps)
    from .jvm.interpreter import Interpreter

    return Interpreter(registry, cost_model=cost_model,
                       max_steps=max_steps)


def make_kernel_executor(kernel, *, max_steps: int = 500_000_000,
                         engine: Optional[str] = None):
    """An HLS-C execution engine for ``kernel``.

    Returns a :class:`~repro.fpga.flat.FlatKernelExecutor` (default) or
    the tree-walking :class:`~repro.fpga.executor.KernelExecutor`; both
    expose ``run(buffers, n_tasks)`` / ``call_function(name, args)`` and
    are bit-identical including trap messages.
    """
    if resolve_engine(engine) == "tac":
        from .fpga.flat import FlatKernelExecutor

        return FlatKernelExecutor(kernel, max_steps=max_steps)
    from .fpga.executor import KernelExecutor

    return KernelExecutor(kernel, max_steps=max_steps)
