"""Flattened (closure-compiled) FPGA kernel execution.

The tree-walking :class:`~repro.fpga.executor.KernelExecutor` re-visits
the C AST on every statement: isinstance dispatch per node, dict-keyed
variable lookups, exception-driven control flow.  This module compiles
each :class:`~repro.hlsc.ast.CFunction` **once** into a linear structure
of Python closures over a slot-indexed frame:

* names resolve to list slots at compile time (no dict lookups),
* ``break``/``continue``/``return`` become sentinel return values
  threaded through block closures (no exception unwinding),
* the 32/64-bit width of every integer operation is inferred statically
  at compile time (same rules as the tree engine) and burned into the
  operation's closure,
* step accounting is block-granular: a block charges all its statements
  up front, so runaway kernels still trap with the tree engine's exact
  message, at worst a few statements later.

One loop idiom rides on top of the closures: an innermost
``for (i = s; i < b; i++) dst[i] = src[i];`` runs as a single list-slice
copy (``_FnCompiler._copy_idiom``) behind a runtime pre-check: both
operands exactly ``CPointer``, distinct backing lists, whole range in
bounds, step budget covers the loop.  When the check fails the scalar
closure of the same loop runs instead, reproducing the tree engine's
traps and partial side effects exactly.

Nothing more general is here because the traffic does not pay for it.
Of the 30 ``for`` loops in the 8 apps' kernels, a numpy element-wise
vectorizer (490 lines, removed) could plan four — median of 15 64-task
batches, with the plan vs with scalar closures only::

    app   planned loop                  trips    plan     closures
    LR    out[j] = g * in[j]               16    2.35 ms    2.14 ms
    LLS   out[j] = g * in[j]               16    2.08 ms    2.00 ms
    AES   s[j] = (in[j] ^ rk[j]) & 255     16  127.5  ms  126.8  ms
    S-W   arr0[i] = arr1[i] row copy      129   55.6  ms   73.8  ms

— while importing numpy cost ~140 ms of every set-up and 16 MB of RSS
in every process that offloads.  The one pattern that pays is a memcpy,
which a list slice does (S-W: 48.3 ms) without the dependency.

Semantics — results, buffer mutations, trap types and messages — are
the tree engine's; ``tests/fpga/test_flat_equivalence.py`` and the fuzz
oracle's engine cross-check enforce it.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import S2FAError
from ..hlsc.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    Break,
    Call,
    Cast,
    CFunction,
    CKernel,
    Continue,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    If,
    IntLit,
    Pragma,
    Return,
    Stmt,
    Ternary,
    UnOp,
    Var,
    VarDecl,
    While,
    walk_exprs,
    walk_stmts,
)
from .executor import (
    _MATH_FUNCS,
    _BreakSignal,
    _ContinueSignal,
    _ReturnSignal,
    _cdiv,
    _i32,
    _i64,
    CPointer,
    function_longs,
    infer_long,
)

_INT_MAX = 2**31 - 1
_INT_MIN = -2**31

#: Reads of this sentinel reproduce the tree engine's undefined-variable
#: trap (its env simply lacks the key until the declaration executes).
_UNDEF = object()

#: Control-flow sentinels returned by statement closures.  ``None``
#: means fall through; a ``(_RET, value)`` tuple unwinds to the function.
_BRK = object()
_CNT = object()
_RET = object()

class _FlatFunction:
    """One compiled function: frame layout plus a body closure."""

    __slots__ = ("name", "params", "n_slots", "param_slots", "body")

    def __init__(self, name: str, params, n_slots: int,
                 param_slots: tuple, body: Callable):
        self.name = name
        self.params = params
        self.n_slots = n_slots
        self.param_slots = param_slots
        self.body = body


class FlatKernelExecutor:
    """Drop-in replacement for
    :class:`~repro.fpga.executor.KernelExecutor` running closure-compiled
    kernels.  Functions compile lazily on first call and stay cached for
    the executor's lifetime (one compile per board registration, not per
    batch)."""

    #: Construction counter (regression tests pin per-case setup cost).
    constructions = 0

    def __init__(self, kernel: CKernel, max_steps: int = 500_000_000):
        self.kernel = kernel
        self.functions = {f.name: f for f in kernel.functions}
        self.max_steps = max_steps
        self._steps = 0
        self._compiled: dict[str, _FlatFunction] = {}
        self._long_returns = frozenset(
            f.name for f in kernel.functions
            if f.return_type is not None and f.return_type.base == "long")
        type(self).constructions += 1

    # -- public API (mirrors the tree engine) --------------------------

    def run(self, buffers: dict[str, list], n_tasks: int) -> None:
        """Execute the top (batch) function, mutating output buffers."""
        self._steps = 0
        top = self._compiled_fn(self.kernel.top)
        env: list = [_UNDEF] * top.n_slots
        for p, slot in zip(top.params, top.param_slots):
            if p.name == "N":
                env[slot] = n_tasks
            elif p.is_pointer:
                if p.name not in buffers:
                    raise S2FAError(f"missing kernel buffer {p.name!r}")
                env[slot] = CPointer(buffers[p.name])
            else:
                env[slot] = buffers[p.name]
        sig = top.body(env, self)
        if sig is not None:
            _raise_escaped(sig)

    def call_function(self, name: str, args: list):
        """Invoke a kernel-local function with Python/CPointer args."""
        if name not in self.functions:
            raise S2FAError(f"kernel has no function {name!r}")
        fn = self._compiled_fn(name)
        if len(args) != len(fn.param_slots):
            raise S2FAError(
                f"{name} expects {len(fn.param_slots)} args, "
                f"got {len(args)}")
        return self._call_compiled(fn, args)

    # -- internals -----------------------------------------------------

    def _compiled_fn(self, name: str) -> _FlatFunction:
        fn = self._compiled.get(name)
        if fn is None:
            func = self.functions.get(name)
            if func is None:
                raise S2FAError(f"kernel has no function {name!r}")
            fn = _FnCompiler(self, func).compile()
            self._compiled[name] = fn
        return fn

    def _call_compiled(self, fn: _FlatFunction, args: list):
        env: list = [_UNDEF] * fn.n_slots
        for slot, value in zip(fn.param_slots, args):
            env[slot] = value
        sig = fn.body(env, self)
        if sig is None:
            return None
        if type(sig) is tuple:
            return sig[1]
        _raise_escaped(sig)


def _raise_escaped(sig) -> None:
    """A control signal left a function body: mirror the tree engine's
    escaping exceptions exactly."""
    if type(sig) is tuple:
        raise _ReturnSignal(sig[1])
    if sig is _BRK:
        raise _BreakSignal()
    raise _ContinueSignal()


class _FnCompiler:
    """Compiles one :class:`CFunction` into a :class:`_FlatFunction`."""

    def __init__(self, executor: FlatKernelExecutor, func: CFunction):
        self.executor = executor
        self.func = func
        self.slots: dict[str, int] = {}
        for p in func.params:
            self._slot(p.name)
        for stmt in walk_stmts(func):
            if isinstance(stmt, VarDecl):
                self._slot(stmt.name)
            elif isinstance(stmt, For):
                self._slot(stmt.var)
        for expr in walk_exprs(func):
            if isinstance(expr, Var):
                self._slot(expr.name)
        self.longs = function_longs(func)

    def _slot(self, name: str) -> int:
        slot = self.slots.get(name)
        if slot is None:
            slot = len(self.slots)
            self.slots[name] = slot
        return slot

    def compile(self) -> _FlatFunction:
        body = self._compile_block(self.func.body)
        return _FlatFunction(
            self.func.name, self.func.params, len(self.slots),
            tuple(self.slots[p.name] for p in self.func.params), body)

    def _is_long(self, expr: Expr) -> bool:
        return infer_long(expr, self.longs, self.executor._long_returns)

    # -- statements ----------------------------------------------------

    def _compile_block(self, block: Block) -> Callable:
        fns = tuple(self._compile_stmt(s) for s in block.stmts)
        n = len(fns)
        if n == 1:
            single = fns[0]

            def run1(env, rt, single=single):
                rt._steps += 1
                if rt._steps > rt.max_steps:
                    raise S2FAError(
                        f"kernel exceeded {rt.max_steps} "
                        f"interpreted steps")
                return single(env, rt)
            return run1

        def run(env, rt, fns=fns, n=n):
            rt._steps += n
            if rt._steps > rt.max_steps:
                raise S2FAError(
                    f"kernel exceeded {rt.max_steps} interpreted steps")
            for f in fns:
                sig = f(env, rt)
                if sig is not None:
                    return sig
            return None
        return run

    def _compile_stmt(self, stmt: Stmt) -> Callable:
        if isinstance(stmt, VarDecl):
            return self._compile_vardecl(stmt)
        if isinstance(stmt, Assign):
            return self._compile_assign(stmt)
        if isinstance(stmt, ExprStmt):
            value_f = self._compile_expr(stmt.expr)

            def run(env, rt, value_f=value_f):
                value_f(env, rt)
                return None
            return run
        if isinstance(stmt, If):
            cond_f = self._compile_expr(stmt.cond)
            then_f = self._compile_block(stmt.then)
            else_f = (None if stmt.orelse is None
                      else self._compile_block(stmt.orelse))

            def run(env, rt, cond_f=cond_f, then_f=then_f,
                    else_f=else_f):
                if cond_f(env, rt):
                    return then_f(env, rt)
                if else_f is not None:
                    return else_f(env, rt)
                return None
            return run
        if isinstance(stmt, For):
            return self._compile_for(stmt)
        if isinstance(stmt, While):
            cond_f = self._compile_expr(stmt.cond)
            body_f = self._compile_block(stmt.body)

            def run(env, rt, cond_f=cond_f, body_f=body_f):
                while cond_f(env, rt):
                    rt._steps += 1
                    if rt._steps > rt.max_steps:
                        raise S2FAError(
                            f"kernel exceeded {rt.max_steps} "
                            f"interpreted steps")
                    sig = body_f(env, rt)
                    if sig is not None:
                        if sig is _BRK:
                            break
                        if sig is _CNT:
                            continue
                        return sig
                return None
            return run
        if isinstance(stmt, Return):
            if stmt.value is None:
                def run(env, rt):
                    return (_RET, None)
                return run
            value_f = self._compile_expr(stmt.value)

            def run(env, rt, value_f=value_f):
                return (_RET, value_f(env, rt))
            return run
        if isinstance(stmt, Break):
            def run(env, rt):
                return _BRK
            return run
        if isinstance(stmt, Continue):
            def run(env, rt):
                return _CNT
            return run
        if isinstance(stmt, Pragma):
            def run(env, rt):
                return None
            return run

        def run(env, rt, stmt=stmt):
            raise S2FAError(f"cannot execute statement {stmt!r}")
        return run

    def _compile_vardecl(self, stmt: VarDecl) -> Callable:
        slot = self._slot(stmt.name)
        if stmt.is_array:
            if stmt.init_values is not None:
                init_values = stmt.init_values

                def run(env, rt, slot=slot, init_values=init_values):
                    env[slot] = CPointer(list(init_values))
                    return None
                return run
            zero = 0.0 if stmt.ctype.is_float else 0
            count = stmt.element_count

            def run(env, rt, slot=slot, zero=zero, count=count):
                env[slot] = CPointer([zero] * count)
                return None
            return run
        if stmt.init is not None:
            init_f = self._compile_expr(stmt.init)

            def run(env, rt, slot=slot, init_f=init_f):
                env[slot] = init_f(env, rt)
                return None
            return run
        zero = 0.0 if stmt.ctype.is_float else 0

        def run(env, rt, slot=slot, zero=zero):
            env[slot] = zero
            return None
        return run

    def _compile_assign(self, stmt: Assign) -> Callable:
        rhs_f = self._compile_expr(stmt.rhs)
        lhs = stmt.lhs
        if isinstance(lhs, Var):
            slot = self._slot(lhs.name)

            def run(env, rt, slot=slot, rhs_f=rhs_f):
                env[slot] = rhs_f(env, rt)
                return None
            return run
        if isinstance(lhs, ArrayRef):
            base_f = self._compile_expr(lhs.array)
            index_f = self._compile_expr(lhs.index)

            def run(env, rt, base_f=base_f, index_f=index_f,
                    rhs_f=rhs_f):
                value = rhs_f(env, rt)
                base = base_f(env, rt)
                index = index_f(env, rt)
                if not isinstance(base, CPointer):
                    raise S2FAError(
                        f"indexed store into non-pointer {base!r}")
                backing = base.backing
                pos = base.offset + index
                if 0 <= pos < len(backing):
                    backing[pos] = value
                    return None
                raise S2FAError(
                    f"kernel out-of-bounds access at offset {pos} "
                    f"(buffer size {len(backing)})")
            return run

        def run(env, rt, lhs=lhs):
            raise S2FAError(f"invalid assignment target {lhs!r}")
        return run

    def _compile_for(self, stmt: For) -> Callable:
        vslot = self._slot(stmt.var)
        start_f = self._compile_expr(stmt.start)
        bound_f = self._compile_expr(stmt.bound)
        body_f = self._compile_block(stmt.body)
        step = stmt.step

        def scalar(env, rt, vslot=vslot, start_f=start_f,
                   bound_f=bound_f, body_f=body_f, step=step):
            env[vslot] = start_f(env, rt)
            while True:
                rt._steps += 1
                if rt._steps > rt.max_steps:
                    raise S2FAError(
                        f"kernel exceeded {rt.max_steps} "
                        f"interpreted steps")
                if not env[vslot] < bound_f(env, rt):
                    break
                sig = body_f(env, rt)
                if sig is not None:
                    if sig is _BRK:
                        break
                    if sig is not _CNT:
                        return sig
                env[vslot] = env[vslot] + step
            return None

        copy = self._copy_idiom(stmt)
        if copy is None:
            return scalar
        dslot, sslot, start_of, bound_of = copy
        iter_ticks = 1 + len(stmt.body.stmts)

        def hybrid(env, rt, scalar=scalar, vslot=vslot, dslot=dslot,
                   sslot=sslot, start_of=start_of, bound_of=bound_of,
                   iter_ticks=iter_ticks):
            start = start_of(env)
            bound = bound_of(env)
            dst = env[dslot]
            src = env[sslot]
            if type(start) is int and type(bound) is int \
                    and type(dst) is CPointer and type(src) is CPointer \
                    and dst.backing is not src.backing:
                n = max(0, bound - start)
                dlo = dst.offset + start
                slo = src.offset + start
                # What the scalar loop would charge: per iteration one
                # loop tick plus the body block, then the exit check.
                ticks = n * iter_ticks + 1
                if dlo >= 0 and dlo + n <= len(dst.backing) \
                        and slo >= 0 and slo + n <= len(src.backing) \
                        and rt._steps + ticks <= rt.max_steps:
                    rt._steps += ticks
                    dst.backing[dlo:dlo + n] = src.backing[slo:slo + n]
                    env[vslot] = start + n
                    return None
            return scalar(env, rt)
        return hybrid

    def _copy_idiom(self, stmt: For) -> Optional[tuple]:
        """Recognise ``for (i = s; i < b; i++) dst[i] = src[i];``.

        Returns ``(dst_slot, src_slot, start_of, bound_of)`` or None.
        ``s`` and ``b`` must each be an int literal or a name other than
        ``i``, so the two getters read a constant or a frame slot: they
        cannot trap, tick or observe the body's stores, and a run-time
        decline (see ``hybrid`` above) is therefore invisible.  Neither
        array may be named ``i``: the loop overwrites that slot first.
        """
        body = [s for s in stmt.body.stmts if not isinstance(s, Pragma)]
        if stmt.step != 1 or len(body) != 1:
            return None
        copy = body[0]
        if not (isinstance(copy, Assign) and isinstance(copy.lhs, ArrayRef)
                and isinstance(copy.rhs, ArrayRef)):
            return None
        for ref in (copy.lhs, copy.rhs):
            if not (isinstance(ref.array, Var) and isinstance(ref.index, Var)
                    and ref.index.name == stmt.var
                    and ref.array.name != stmt.var):
                return None
        getters = []
        for expr in (stmt.start, stmt.bound):
            if isinstance(expr, IntLit):
                getters.append(lambda env, value=expr.value: value)
            elif isinstance(expr, Var) and expr.name != stmt.var:
                getters.append(
                    lambda env, slot=self._slot(expr.name): env[slot])
            else:
                return None
        return (self._slot(copy.lhs.array.name),
                self._slot(copy.rhs.array.name), *getters)

    # -- expressions ---------------------------------------------------

    def _compile_expr(self, expr: Expr) -> Callable:
        if isinstance(expr, IntLit):
            value = expr.value

            def run(env, rt, value=value):
                return value
            return run
        if isinstance(expr, FloatLit):
            value = expr.value

            def run(env, rt, value=value):
                return value
            return run
        if isinstance(expr, Var):
            slot = self._slot(expr.name)
            name = expr.name

            def run(env, rt, slot=slot, name=name):
                value = env[slot]
                if value is _UNDEF:
                    raise S2FAError(
                        f"kernel read of undefined {name!r}")
                return value
            return run
        if isinstance(expr, ArrayRef):
            index_f = self._compile_expr(expr.index)
            if isinstance(expr.array, Var) \
                    and isinstance(expr.index, Var):
                # arr[i] with both names: fetch two slots directly.
                slot = self._slot(expr.array.name)
                name = expr.array.name
                islot = self._slot(expr.index.name)
                iname = expr.index.name

                def run(env, rt, slot=slot, name=name, islot=islot,
                        iname=iname):
                    base = env[slot]
                    index = env[islot]
                    if type(base) is CPointer \
                            and index is not _UNDEF:
                        backing = base.backing
                        pos = base.offset + index
                        if 0 <= pos < len(backing):
                            return backing[pos]
                        raise S2FAError(
                            f"kernel out-of-bounds access at offset "
                            f"{pos} (buffer size {len(backing)})")
                    if base is _UNDEF:
                        raise S2FAError(
                            f"kernel read of undefined {name!r}")
                    if index is _UNDEF:
                        raise S2FAError(
                            f"kernel read of undefined {iname!r}")
                    raise S2FAError(
                        f"indexed load from non-pointer {base!r}")
                return run
            if isinstance(expr.array, Var):
                # The dominant load shape: inline the slot fetch and the
                # bounds check (same trap messages as CPointer/env).
                slot = self._slot(expr.array.name)
                name = expr.array.name

                def run(env, rt, slot=slot, name=name, index_f=index_f):
                    base = env[slot]
                    if type(base) is CPointer:
                        backing = base.backing
                        pos = base.offset + index_f(env, rt)
                        if 0 <= pos < len(backing):
                            return backing[pos]
                        raise S2FAError(
                            f"kernel out-of-bounds access at offset "
                            f"{pos} (buffer size {len(backing)})")
                    # Trap order matches the tree engine: undefined
                    # base, then the index expression, then non-pointer.
                    if base is _UNDEF:
                        raise S2FAError(
                            f"kernel read of undefined {name!r}")
                    index_f(env, rt)
                    raise S2FAError(
                        f"indexed load from non-pointer {base!r}")
                return run
            base_f = self._compile_expr(expr.array)

            def run(env, rt, base_f=base_f, index_f=index_f):
                base = base_f(env, rt)
                index = index_f(env, rt)
                if not isinstance(base, CPointer):
                    raise S2FAError(
                        f"indexed load from non-pointer {base!r}")
                backing = base.backing
                pos = base.offset + index
                if 0 <= pos < len(backing):
                    return backing[pos]
                raise S2FAError(
                    f"kernel out-of-bounds access at offset {pos} "
                    f"(buffer size {len(backing)})")
            return run
        if isinstance(expr, BinOp):
            return self._compile_binop(expr)
        if isinstance(expr, UnOp):
            return self._compile_unop(expr)
        if isinstance(expr, Cast):
            return self._compile_cast(expr)
        if isinstance(expr, Ternary):
            cond_f = self._compile_expr(expr.cond)
            then_f = self._compile_expr(expr.then)
            other_f = self._compile_expr(expr.other)

            def run(env, rt, cond_f=cond_f, then_f=then_f,
                    other_f=other_f):
                if cond_f(env, rt):
                    return then_f(env, rt)
                return other_f(env, rt)
            return run
        if isinstance(expr, Call):
            return self._compile_call(expr)

        def run(env, rt, expr=expr):
            raise S2FAError(f"cannot evaluate expression {expr!r}")
        return run

    def _compile_unop(self, expr: UnOp) -> Callable:
        value_f = self._compile_expr(expr.operand)
        op = expr.op
        if op == "-":
            wrap = _i64 if self._is_long(expr) else _i32

            def run(env, rt, value_f=value_f, wrap=wrap):
                value = value_f(env, rt)
                if not isinstance(value, int):
                    return -value
                return wrap(-value)
            return run
        if op == "!":
            def run(env, rt, value_f=value_f):
                return 0 if value_f(env, rt) else 1
            return run
        if op == "~":
            wrap = _i64 if self._is_long(expr) else _i32

            def run(env, rt, value_f=value_f, wrap=wrap):
                return wrap(~value_f(env, rt))
            return run

        def run(env, rt, op=op):
            raise S2FAError(f"bad unary operator {op}")
        return run

    def _compile_cast(self, expr: Cast) -> Callable:
        value_f = self._compile_expr(expr.expr)
        base = expr.ctype.base
        if base in ("float", "double"):
            def run(env, rt, value_f=value_f):
                return float(value_f(env, rt))
            return run
        if base == "char":
            def run(env, rt, value_f=value_f):
                # JVM char semantics (see tree engine's docstring).
                return int(value_f(env, rt)) & 0xFFFF
            return run
        if base == "short":
            def run(env, rt, value_f=value_f):
                v = int(value_f(env, rt)) & 0xFFFF
                return v - 0x10000 if v > 0x7FFF else v
            return run
        if base == "long":
            def run(env, rt, value_f=value_f):
                value = value_f(env, rt)
                # JVM f2l/d2l: non-finite saturates to 0.
                if isinstance(value, float) and not _isfinite(value):
                    return 0
                return _i64(int(value))
            return run

        def run(env, rt, value_f=value_f):
            value = value_f(env, rt)
            # JVM f2i/d2i: inf saturates to INT_MAX/INT_MIN, NaN to 0.
            if isinstance(value, float) and not _isfinite(value):
                return _INT_MAX if value > 0 else (
                    _INT_MIN if value < 0 else 0)
            return _i32(int(value))
        return run

    def _compile_binop(self, expr: BinOp) -> Callable:
        op = expr.op
        lhs_f = self._compile_expr(expr.lhs)
        rhs_f = self._compile_expr(expr.rhs)
        if op == "&&":
            def run(env, rt, lhs_f=lhs_f, rhs_f=rhs_f):
                return 1 if (lhs_f(env, rt) and rhs_f(env, rt)) else 0
            return run
        if op == "||":
            def run(env, rt, lhs_f=lhs_f, rhs_f=rhs_f):
                return 1 if (lhs_f(env, rt) or rhs_f(env, rt)) else 0
            return run
        if op in _CMP_FUNCS:
            cmp = _CMP_FUNCS[op]

            def run(env, rt, lhs_f=lhs_f, rhs_f=rhs_f, cmp=cmp, op=op):
                a = lhs_f(env, rt)
                b = rhs_f(env, rt)
                if isinstance(a, CPointer) and isinstance(b, int):
                    raise S2FAError(f"bad pointer arithmetic {op}")
                return 1 if cmp(a, b) else 0
            return run
        wrap = _i64 if self._is_long(expr) else _i32
        mask = 63 if wrap is _i64 else 31
        if op == "+":
            def run(env, rt, lhs_f=lhs_f, rhs_f=rhs_f, wrap=wrap):
                a = lhs_f(env, rt)
                b = rhs_f(env, rt)
                if isinstance(a, CPointer):
                    if isinstance(b, int):
                        return a.shifted(b)
                elif isinstance(a, int) and isinstance(b, int):
                    return wrap(a + b)
                return a + b
            return run
        if op == "-":
            def run(env, rt, lhs_f=lhs_f, rhs_f=rhs_f, wrap=wrap):
                a = lhs_f(env, rt)
                b = rhs_f(env, rt)
                if isinstance(a, CPointer):
                    if isinstance(b, int):
                        return a.shifted(-b)
                elif isinstance(a, int) and isinstance(b, int):
                    return wrap(a - b)
                return a - b
            return run
        if op == "*":
            def run(env, rt, lhs_f=lhs_f, rhs_f=rhs_f, wrap=wrap):
                a = lhs_f(env, rt)
                b = rhs_f(env, rt)
                if isinstance(a, CPointer) and isinstance(b, int):
                    raise S2FAError("bad pointer arithmetic *")
                if isinstance(a, int) and isinstance(b, int):
                    return wrap(a * b)
                return a * b
            return run
        if op == "/":
            def run(env, rt, lhs_f=lhs_f, rhs_f=rhs_f, wrap=wrap):
                a = lhs_f(env, rt)
                b = rhs_f(env, rt)
                if isinstance(a, CPointer) and isinstance(b, int):
                    raise S2FAError("bad pointer arithmetic /")
                if isinstance(a, int) and isinstance(b, int):
                    return wrap(_cdiv(a, b))
                if b == 0.0:
                    return _INF if a > 0 else (-_INF if a < 0 else _NAN)
                return a / b
            return run
        if op == "%":
            def run(env, rt, lhs_f=lhs_f, rhs_f=rhs_f, wrap=wrap):
                a = lhs_f(env, rt)
                b = rhs_f(env, rt)
                if isinstance(a, CPointer) and isinstance(b, int):
                    raise S2FAError("bad pointer arithmetic %")
                if not (isinstance(a, int) and isinstance(b, int)):
                    return _fmod(a, b)
                return wrap(a - _cdiv(a, b) * b)
            return run
        if op in ("<<", ">>"):
            left = op == "<<"

            def run(env, rt, lhs_f=lhs_f, rhs_f=rhs_f, wrap=wrap,
                    mask=mask, left=left, op=op):
                a = lhs_f(env, rt)
                b = rhs_f(env, rt)
                if isinstance(a, CPointer) and isinstance(b, int):
                    raise S2FAError(f"bad pointer arithmetic {op}")
                if left:
                    return wrap(a << (b & mask))
                return wrap(a >> (b & mask))
            return run
        if op in ("&", "|", "^"):
            bit = {"&": int.__and__, "|": int.__or__,
                   "^": int.__xor__}[op]

            def run(env, rt, lhs_f=lhs_f, rhs_f=rhs_f, wrap=wrap,
                    bit=bit, op=op):
                a = lhs_f(env, rt)
                b = rhs_f(env, rt)
                if isinstance(a, CPointer) and isinstance(b, int):
                    raise S2FAError(f"bad pointer arithmetic {op}")
                return wrap(bit(a, b))
            return run

        def run(env, rt, op=op):
            raise S2FAError(f"bad binary operator {op}")
        return run

    def _compile_call(self, expr: Call) -> Callable:
        arg_fs = tuple(self._compile_expr(a) for a in expr.args)
        name = expr.name
        if name in self.executor.functions:
            n_args = len(arg_fs)

            def run(env, rt, arg_fs=arg_fs, name=name, n_args=n_args):
                fn = rt._compiled_fn(name)
                if n_args != len(fn.param_slots):
                    raise S2FAError(
                        f"{name} expects {len(fn.param_slots)} args, "
                        f"got {n_args}")
                return rt._call_compiled(
                    fn, [f(env, rt) for f in arg_fs])
            return run
        math_fn = _MATH_FUNCS.get(name)
        if math_fn is not None:
            def run(env, rt, arg_fs=arg_fs, math_fn=math_fn):
                return math_fn(*[f(env, rt) for f in arg_fs])
            return run

        def run(env, rt, name=name):
            raise S2FAError(f"kernel calls unknown function {name!r}")
        return run


_CMP_FUNCS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_INF = float("inf")
_NAN = float("nan")

from math import fmod as _fmod, isfinite as _isfinite  # noqa: E402
