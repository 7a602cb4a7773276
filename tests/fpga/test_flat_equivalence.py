"""Differential battery: flat C executor vs the tree-walking one.

:class:`~repro.fpga.flat.FlatKernelExecutor` must be bit-identical to
:class:`~repro.fpga.executor.KernelExecutor` — same buffer contents and
the same trap type *and message* — on every app's functional kernel,
the committed fuzz corpus, and hand-built trap-site kernels, including
every way the flat engine's one loop idiom (the array copy) can accept
or decline.
"""

from pathlib import Path

import pytest

from repro.apps import ALL_APPS, get_app
from repro.blaze import make_deserializer, make_serializer
from repro.compiler import compile_kernel
from repro.errors import S2FAError
from repro.fpga import FlatKernelExecutor, KernelExecutor
from repro.fuzz import load_regressions
from repro.fuzz.oracle import bits_equal
from repro.hlsc import INT, VOID, CKernel
from repro.hlsc.ast import ExprStmt
from repro.hlsc.builder import (
    add,
    assign,
    call,
    decl,
    for_loop,
    function,
    idx,
    lit,
    mul,
    param,
    var,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz_corpus"

APP_NAMES = [spec.name for spec in ALL_APPS]


def _run_both(kernel, buffers, n_tasks, *, max_steps=500_000_000):
    """Run the same kernel through both engines on independent buffers.

    Returns the (bit-identical) tree-engine buffers; asserts both
    engines either succeed or trap with the exact same error text, and
    leave equal buffers behind either way.
    """
    import copy
    tree_buffers = copy.deepcopy(buffers)
    flat_buffers = copy.deepcopy(buffers)
    tree_err = flat_err = None
    try:
        KernelExecutor(kernel, max_steps=max_steps).run(
            tree_buffers, n_tasks)
    except Exception as exc:
        tree_err = f"{type(exc).__name__}: {exc}"
    try:
        FlatKernelExecutor(kernel, max_steps=max_steps).run(
            flat_buffers, n_tasks)
    except Exception as exc:
        flat_err = f"{type(exc).__name__}: {exc}"
    assert tree_err == flat_err, (
        f"trap divergence: tree={tree_err!r} flat={flat_err!r}")
    for name in tree_buffers:
        assert bits_equal(tree_buffers[name], flat_buffers[name]), (
            f"buffer {name!r} diverges between engines")
    return tree_buffers, tree_err


# ----------------------------------------------------------------------
# Applications: functional kernels on real serialized workloads
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", APP_NAMES)
def test_app_buffers_bit_identical(name):
    spec = get_app(name)
    compiled = spec.functional_compile()
    tasks = spec.functional_tasks_for(8, seed=23)
    buffers = make_serializer(compiled.layout)(tasks)
    tree_buffers, err = _run_both(compiled.kernel, buffers, len(tasks))
    assert err is None
    outputs = make_deserializer(compiled.layout)(tree_buffers, len(tasks))
    assert len(outputs) == len(tasks)


# ----------------------------------------------------------------------
# The committed fuzz corpus
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "entry", load_regressions(CORPUS_DIR),
    ids=lambda e: e.path.stem if e.path else e.name)
def test_corpus_entry_bit_identical(entry):
    compiled = compile_kernel(entry.source,
                              layout_config=entry.layout_config(),
                              batch_size=entry.batch_size)
    tasks = entry.host_tasks()
    buffers = make_serializer(compiled.layout)(tasks)
    _, err = _run_both(compiled.kernel, buffers, len(tasks))
    assert err is None


# ----------------------------------------------------------------------
# Trap parity on hand-built kernels
# ----------------------------------------------------------------------

def _kernel(*fns, top="kernel"):
    return CKernel(functions=list(fns), top=top)


def _square_kernel():
    return _kernel(function(
        "kernel", VOID,
        [param("N", INT), param("out", INT, pointer=True)],
        for_loop("i", var("N"), assign(idx("out", "i"),
                                       mul("i", "i")))))


def test_out_of_bounds_trap_parity():
    fn = function(
        "kernel", VOID,
        [param("N", INT), param("out", INT, pointer=True)],
        for_loop("i", var("N"),
                 assign(idx("out", add(var("i"), lit(10))), lit(1))))
    _, err = _run_both(_kernel(fn), {"out": [0] * 4}, 4)
    assert err is not None and "out-of-bounds" in err


def test_step_budget_trap_parity():
    _, err = _run_both(_square_kernel(), {"out": [0] * 64}, 64,
                       max_steps=20)
    assert err == "S2FAError: kernel exceeded 20 interpreted steps"


def test_missing_buffer_trap_parity():
    _, err = _run_both(_square_kernel(), {}, 4)
    assert err == "S2FAError: missing kernel buffer 'out'"


def test_division_by_zero_trap_parity():
    from repro.hlsc.ast import BinOp
    fn = function(
        "kernel", VOID,
        [param("N", INT), param("out", INT, pointer=True)],
        for_loop("i", var("N"),
                 assign(idx("out", "i"),
                        BinOp("/", lit(7), var("i")))))
    _, err = _run_both(_kernel(fn), {"out": [0] * 4}, 4)
    assert err == "S2FAError: kernel divided by zero"


def test_call_function_error_parity():
    kernel = _square_kernel()
    for engine_cls in (KernelExecutor, FlatKernelExecutor):
        executor = engine_cls(kernel)
        with pytest.raises(S2FAError,
                           match="kernel has no function 'nope'"):
            executor.call_function("nope", [])
        with pytest.raises(S2FAError,
                           match="kernel expects 2 args, got 1"):
            executor.call_function("kernel", [3])


def test_helper_call_parity():
    inner = function(
        "write", VOID, [param("p", INT, pointer=True)],
        assign(idx("p", 0), lit(9)))
    top = function(
        "kernel", VOID,
        [param("N", INT), param("out", INT, pointer=True)],
        for_loop("i", var("N"),
                 ExprStmt(call("write", add(var("out"), var("i"))))))
    buffers, err = _run_both(_kernel(inner, top), {"out": [0] * 3}, 3)
    assert err is None
    assert buffers["out"] == [9, 9, 9]


# ----------------------------------------------------------------------
# The array-copy loop idiom: accepted and declined runs vs the tree engine
# ----------------------------------------------------------------------

def _copy_loop(dst="dst", src="src", bound="N", start=0):
    return for_loop("i", bound, assign(idx(dst, "i"), idx(src, "i")),
                    start=start)


def _copy_kernel(*body, params=("dst", "src")):
    top = function(
        "kernel", VOID,
        [param("N", INT)] + [param(p, INT, pointer=True) for p in params],
        *body)
    return _kernel(top)


def _copy_helper_kernel():
    """``copy(p, q, n)`` called on ``buf + 2`` and ``buf``: the helper's
    two pointers share one backing list at different offsets."""
    helper = function(
        "copy", VOID,
        [param("p", INT, pointer=True), param("q", INT, pointer=True),
         param("n", INT)],
        _copy_loop("p", "q", "n"))
    top = function(
        "kernel", VOID,
        [param("N", INT), param("buf", INT, pointer=True),
         param("dst", INT, pointer=True)],
        ExprStmt(call("copy", add(var("buf"), lit(2)), var("buf"),
                      var("N"))),
        ExprStmt(call("copy", var("dst"), var("buf"), var("N"))))
    return _kernel(helper, top)


_SRC = list(range(100, 140))

_COPY_CASES = [
    # (id, kernel, buffers, N, max_steps, trap, buffers afterwards)
    *[(f"trips-{n}", _copy_kernel(_copy_loop()),
       {"dst": [0] * 40, "src": _SRC}, n, None, None,
       {"dst": _SRC[:n] + [0] * (40 - n)})
      for n in (0, 1, 2, 15, 16, 17, 40)],
    ("start-past-bound", _copy_kernel(_copy_loop(start=5)),
     {"dst": [0] * 8, "src": _SRC}, 3, None, None, {"dst": [0] * 8}),
    ("literal-bound-var-start",
     _copy_kernel(_copy_loop(bound=6, start="N")),
     {"dst": [0] * 8, "src": _SRC}, 2, None, None,
     {"dst": [0, 0] + _SRC[2:6] + [0, 0]}),
    ("same-name", _copy_kernel(_copy_loop("a", "a"), params=("a",)),
     {"a": _SRC[:8]}, 8, None, None, {"a": _SRC[:8]}),
    # Forward overlap: element 0 and 1 propagate, a memmove would not.
    ("same-buffer-offsets-and-helper-call", _copy_helper_kernel(),
     {"buf": [1, 2, 3, 4, 5, 6, 7, 8], "dst": [0] * 6}, 6, None, None,
     {"buf": [1, 2, 1, 2, 1, 2, 1, 2], "dst": [1, 2, 1, 2, 1, 2]}),
    ("dst-out-of-bounds-part-way", _copy_kernel(_copy_loop()),
     {"dst": [0] * 5, "src": _SRC}, 9, None,
     "S2FAError: kernel out-of-bounds access at offset 5 (buffer size 5)",
     {"dst": _SRC[:5]}),
    ("src-out-of-bounds-part-way", _copy_kernel(_copy_loop()),
     {"dst": [0] * 9, "src": _SRC[:3]}, 9, None,
     "S2FAError: kernel out-of-bounds access at offset 3 (buffer size 3)",
     {"dst": _SRC[:3] + [0] * 6}),
    ("negative-start", _copy_kernel(_copy_loop(start=-2)),
     {"dst": [0] * 4, "src": _SRC}, 4, None,
     "S2FAError: kernel out-of-bounds access at offset -2 "
     "(buffer size 40)", {"dst": [0] * 4}),
    ("negative-start-dst-only",
     _copy_kernel(decl("s", INT, init=add(var("src"), lit(2))),
                  _copy_loop(src="s", start=-2)),
     {"dst": [0] * 4, "src": _SRC}, 4, None,
     "S2FAError: kernel out-of-bounds access at offset -2 "
     "(buffer size 4)", {"dst": [0] * 4}),
    # 1 tick for the loop statement, 2 per element: the 8th trips it.
    ("steps-exhausted-part-way", _copy_kernel(_copy_loop()),
     {"dst": [0] * 20, "src": _SRC}, 20, 15,
     "S2FAError: kernel exceeded 15 interpreted steps",
     {"dst": _SRC[:7] + [0] * 13}),
    ("steps-exactly-enough", _copy_kernel(_copy_loop()),
     {"dst": [0] * 20, "src": _SRC}, 20, 42, None, {"dst": _SRC[:20]}),
    ("steps-one-short", _copy_kernel(_copy_loop()),
     {"dst": [0] * 20, "src": _SRC}, 20, 41,
     "S2FAError: kernel exceeded 41 interpreted steps",
     {"dst": _SRC[:20]}),
    ("src-is-scalar",
     _copy_kernel(decl("s", INT, init=3), _copy_loop(src="s")),
     {"dst": [0] * 4, "src": _SRC}, 4, None,
     "S2FAError: indexed load from non-pointer 3", {"dst": [0] * 4}),
    ("dst-is-scalar",
     _copy_kernel(decl("d", INT, init=3), _copy_loop(dst="d")),
     {"dst": [0] * 4, "src": _SRC}, 4, None,
     "S2FAError: indexed store into non-pointer 3", {"dst": [0] * 4}),
    ("src-read-before-declaration",
     _copy_kernel(_copy_loop(src="s"), decl("s", INT, dims=(4,))),
     {"dst": [0] * 4, "src": _SRC}, 4, None,
     "S2FAError: kernel read of undefined 's'", {"dst": [0] * 4}),
    ("dst-read-before-declaration",
     _copy_kernel(_copy_loop(dst="d"), decl("d", INT, dims=(4,))),
     {"dst": [0] * 4, "src": _SRC}, 4, None,
     "S2FAError: kernel read of undefined 'd'", {"dst": [0] * 4}),
    # The loop variable's slot holds a pointer until the loop sets it.
    ("dst-named-like-loop-variable",
     _copy_kernel(decl("i", INT, dims=(4,)), _copy_loop(dst="i")),
     {"dst": [0] * 4, "src": _SRC}, 4, None,
     "S2FAError: indexed store into non-pointer 0", {"dst": [0] * 4}),
    ("bound-is-scalar-float",
     _copy_kernel(decl("f", INT, init=2.5), _copy_loop(bound="f")),
     {"dst": [0] * 4, "src": _SRC}, 4, None, None,
     {"dst": _SRC[:3] + [0]}),
    # The bound reads the array the body stores to, so it must be
    # re-evaluated every iteration: a[0] becomes 17 on the first store.
    ("bound-reads-stored-array",
     _copy_kernel(_copy_loop("a", "b", bound=idx("a", 0)),
                  params=("a", "b")),
     {"a": [24] + [0] * 31, "b": [17] + list(range(100, 131))}, 1, None,
     None, {"a": [17] + list(range(100, 116)) + [0] * 15}),
]


@pytest.mark.parametrize(
    "kernel, buffers, n_tasks, max_steps, trap, after",
    [case[1:] for case in _COPY_CASES], ids=[c[0] for c in _COPY_CASES])
def test_copy_idiom_parity(kernel, buffers, n_tasks, max_steps, trap,
                           after):
    kwargs = {} if max_steps is None else {"max_steps": max_steps}
    tree_buffers, err = _run_both(kernel, buffers, n_tasks, **kwargs)
    assert err == trap
    for name, expected in after.items():
        assert tree_buffers[name] == expected
