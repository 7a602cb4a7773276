"""Functional FPGA execution: a C-AST interpreter.

The device simulator runs the *generated HLS-C kernel itself* (not the
original Scala), so functional equivalence of the whole compilation
pipeline is checked end to end: JVM-interpreted Scala vs C-interpreted
kernel must agree on every application (the tests assert exactly that).

Semantics follow the generated subset of C with two deliberate choices:

* ``char`` behaves as the JVM's unsigned 16-bit char (the code generator
  emits char buffers from Java chars, and real S2FA would declare them
  ``unsigned``);
* 32-bit wrapping ``int`` / 64-bit wrapping ``long`` arithmetic with
  truncating division (C99 == JVM).  Which width applies is decided
  *statically* from the declared C types (params, ``VarDecl``s, literal
  suffixes, casts), exactly as a C compiler would — the fuzzer found
  that treating every integer as 32-bit diverges from the JVM on
  ``Long`` kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    walk_stmts,
)

_INT_MAX = 2**31 - 1
_INT_MIN = -2**31
_LONG_MAX = 2**63 - 1


def _i32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value > _INT_MAX else value


def _i64(value: int) -> int:
    value &= 0xFFFFFFFFFFFFFFFF
    return value - 0x10000000000000000 if value > _LONG_MAX else value


def _cdiv(a: int, b: int) -> int:
    if b == 0:
        raise S2FAError("kernel divided by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


@dataclass
class CPointer:
    """A pointer into a flat Python-list backing store."""

    backing: list
    offset: int = 0

    def index(self, i: int) -> int:
        pos = self.offset + i
        if not 0 <= pos < len(self.backing):
            raise S2FAError(
                f"kernel out-of-bounds access at offset {pos} "
                f"(buffer size {len(self.backing)})")
        return pos

    def load(self, i: int):
        return self.backing[self.index(i)]

    def store(self, i: int, value) -> None:
        self.backing[self.index(i)] = value

    def shifted(self, delta: int) -> "CPointer":
        return CPointer(self.backing, self.offset + delta)


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


_MATH_FUNCS = {
    "exp": math.exp, "expf": math.exp,
    "log": math.log, "logf": math.log,
    "sqrt": math.sqrt, "sqrtf": math.sqrt,
    "pow": math.pow,
    "floor": math.floor, "ceil": math.ceil,
    "fabs": abs, "fabsf": abs, "abs": abs,
    "fmin": min, "fminf": min, "min": min,
    "fmax": max, "fmaxf": max, "max": max,
}


def function_longs(func: CFunction) -> frozenset[str]:
    """Names in ``func`` declared 64-bit ``long`` (scalars and pointee
    types alike): params plus every ``VarDecl`` at any depth."""
    longs = {p.name for p in func.params if p.ctype.base == "long"}
    longs.update(s.name for s in walk_stmts(func)
                 if isinstance(s, VarDecl) and s.ctype.base == "long")
    return frozenset(longs)


def infer_long(expr: Expr, longs: frozenset, long_returns: frozenset) -> bool:
    """Static width inference: is ``expr`` 64-bit ``long``, given the
    enclosing function's long names and the kernel's long-returning
    functions?  The one rule both C engines execute by."""
    if isinstance(expr, IntLit):
        return expr.ctype.base == "long"
    if isinstance(expr, Var):
        return expr.name in longs
    if isinstance(expr, ArrayRef):
        base = expr.array
        while isinstance(base, (ArrayRef, BinOp)):
            base = base.array if isinstance(base, ArrayRef) else base.lhs
        return isinstance(base, Var) and base.name in longs
    if isinstance(expr, Cast):
        return expr.ctype.base == "long"
    if isinstance(expr, UnOp):
        return expr.op in ("-", "~") and infer_long(
            expr.operand, longs, long_returns)
    if isinstance(expr, BinOp):
        if expr.op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
            return False
        if expr.op in ("<<", ">>"):
            return infer_long(expr.lhs, longs, long_returns)
        return (infer_long(expr.lhs, longs, long_returns)
                or infer_long(expr.rhs, longs, long_returns))
    if isinstance(expr, Ternary):
        return (infer_long(expr.then, longs, long_returns)
                or infer_long(expr.other, longs, long_returns))
    if isinstance(expr, Call):
        return expr.name in long_returns
    return False


class KernelExecutor:
    """Interprets one :class:`CKernel`."""

    def __init__(self, kernel: CKernel, max_steps: int = 500_000_000):
        self.kernel = kernel
        self.functions = {f.name: f for f in kernel.functions}
        self.max_steps = max_steps
        self._steps = 0
        #: function name -> names with 64-bit ``long`` type (scalars and
        #: pointee types alike); computed lazily per function.
        self._long_vars: dict[str, frozenset[str]] = {}
        self._long_returns = frozenset(
            f.name for f in kernel.functions
            if f.return_type is not None and f.return_type.base == "long")
        #: stack of long-variable sets for the functions being executed.
        self._ctx: list[frozenset[str]] = []
        self._long_memo: dict[int, bool] = {}

    # ------------------------------------------------------------------

    def _function_longs(self, func: CFunction) -> frozenset[str]:
        cached = self._long_vars.get(func.name)
        if cached is None:
            cached = self._long_vars[func.name] = function_longs(func)
        return cached

    def run(self, buffers: dict[str, list], n_tasks: int) -> None:
        """Execute the top (batch) function, mutating output buffers."""
        self._steps = 0
        top = self.kernel.top_function
        env: dict[str, object] = {}
        for p in top.params:
            if p.name == "N":
                env["N"] = n_tasks
            elif p.is_pointer:
                if p.name not in buffers:
                    raise S2FAError(f"missing kernel buffer {p.name!r}")
                env[p.name] = CPointer(buffers[p.name])
            else:
                env[p.name] = buffers[p.name]
        self._ctx.append(self._function_longs(top))
        try:
            self._exec_block(top.body, env)
        finally:
            self._ctx.pop()

    def call_function(self, name: str, args: list):
        """Invoke a kernel-local function with Python/CPointer args."""
        func = self.functions.get(name)
        if func is None:
            raise S2FAError(f"kernel has no function {name!r}")
        env: dict[str, object] = {}
        if len(args) != len(func.params):
            raise S2FAError(
                f"{name} expects {len(func.params)} args, got {len(args)}")
        for p, value in zip(func.params, args):
            env[p.name] = value
        self._ctx.append(self._function_longs(func))
        try:
            self._exec_block(func.body, env)
        except _ReturnSignal as signal:
            return signal.value
        finally:
            self._ctx.pop()
        return None

    # ------------------------------------------------------------------
    # Static width inference (is an expression 64-bit ``long``?)
    # ------------------------------------------------------------------

    def _is_long(self, expr: Expr) -> bool:
        key = id(expr)
        cached = self._long_memo.get(key)
        if cached is None:
            cached = self._long_memo[key] = infer_long(
                expr, self._ctx[-1] if self._ctx else frozenset(),
                self._long_returns)
        return cached

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise S2FAError(
                f"kernel exceeded {self.max_steps} interpreted steps")

    def _exec_block(self, block: Block, env: dict) -> None:
        for stmt in block.stmts:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: Stmt, env: dict) -> None:
        self._tick()
        if isinstance(stmt, VarDecl):
            if stmt.is_array:
                if stmt.init_values is not None:
                    env[stmt.name] = CPointer(list(stmt.init_values))
                else:
                    zero = 0.0 if stmt.ctype.is_float else 0
                    env[stmt.name] = CPointer(
                        [zero] * stmt.element_count)
            elif stmt.init is not None:
                env[stmt.name] = self._eval(stmt.init, env)
            else:
                env[stmt.name] = 0.0 if stmt.ctype.is_float else 0
            return
        if isinstance(stmt, Assign):
            value = self._eval(stmt.rhs, env)
            self._store(stmt.lhs, value, env)
            return
        if isinstance(stmt, ExprStmt):
            self._eval(stmt.expr, env)
            return
        if isinstance(stmt, If):
            if self._eval(stmt.cond, env):
                self._exec_block(stmt.then, env)
            elif stmt.orelse is not None:
                self._exec_block(stmt.orelse, env)
            return
        if isinstance(stmt, For):
            env[stmt.var] = self._eval(stmt.start, env)
            while True:
                self._tick()
                if not env[stmt.var] < self._eval(stmt.bound, env):
                    break
                try:
                    self._exec_block(stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                env[stmt.var] = env[stmt.var] + stmt.step
            return
        if isinstance(stmt, While):
            while self._eval(stmt.cond, env):
                self._tick()
                try:
                    self._exec_block(stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return
        if isinstance(stmt, Return):
            raise _ReturnSignal(
                None if stmt.value is None else self._eval(stmt.value, env))
        if isinstance(stmt, Break):
            raise _BreakSignal()
        if isinstance(stmt, Continue):
            raise _ContinueSignal()
        if isinstance(stmt, Pragma):
            return
        raise S2FAError(f"cannot execute statement {stmt!r}")

    def _store(self, lhs: Expr, value, env: dict) -> None:
        if isinstance(lhs, Var):
            env[lhs.name] = value
            return
        if isinstance(lhs, ArrayRef):
            base = self._eval(lhs.array, env)
            index = self._eval(lhs.index, env)
            if not isinstance(base, CPointer):
                raise S2FAError(f"indexed store into non-pointer {base!r}")
            base.store(index, value)
            return
        raise S2FAError(f"invalid assignment target {lhs!r}")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, expr: Expr, env: dict):
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, FloatLit):
            return expr.value
        if isinstance(expr, Var):
            if expr.name not in env:
                raise S2FAError(f"kernel read of undefined {expr.name!r}")
            return env[expr.name]
        if isinstance(expr, ArrayRef):
            base = self._eval(expr.array, env)
            index = self._eval(expr.index, env)
            if not isinstance(base, CPointer):
                raise S2FAError(f"indexed load from non-pointer {base!r}")
            return base.load(index)
        if isinstance(expr, BinOp):
            return self._binop(expr, env)
        if isinstance(expr, UnOp):
            value = self._eval(expr.operand, env)
            if expr.op == "-":
                if not isinstance(value, int):
                    return -value
                return _i64(-value) if self._is_long(expr) else _i32(-value)
            if expr.op == "!":
                return 0 if value else 1
            if expr.op == "~":
                return _i64(~value) if self._is_long(expr) else _i32(~value)
            raise S2FAError(f"bad unary operator {expr.op}")
        if isinstance(expr, Cast):
            value = self._eval(expr.expr, env)
            base = expr.ctype.base
            if base in ("float", "double"):
                return float(value)
            if base == "char":
                # JVM char semantics (see module docstring).
                return int(value) & 0xFFFF
            if base == "short":
                v = int(value) & 0xFFFF
                return v - 0x10000 if v > 0x7FFF else v
            if base == "long":
                # JVM f2l/d2l: non-finite saturates to 0.
                if isinstance(value, float) and not math.isfinite(value):
                    return 0
                return _i64(int(value))
            # JVM f2i/d2i: inf saturates to INT_MAX/INT_MIN, NaN to 0.
            if isinstance(value, float) and not math.isfinite(value):
                return _INT_MAX if value > 0 else (
                    _INT_MIN if value < 0 else 0)
            return _i32(int(value))
        if isinstance(expr, Ternary):
            if self._eval(expr.cond, env):
                return self._eval(expr.then, env)
            return self._eval(expr.other, env)
        if isinstance(expr, Call):
            return self._call(expr, env)
        raise S2FAError(f"cannot evaluate expression {expr!r}")

    def _binop(self, expr: BinOp, env: dict):
        op = expr.op
        if op == "&&":
            return 1 if (self._eval(expr.lhs, env)
                         and self._eval(expr.rhs, env)) else 0
        if op == "||":
            return 1 if (self._eval(expr.lhs, env)
                         or self._eval(expr.rhs, env)) else 0
        a = self._eval(expr.lhs, env)
        b = self._eval(expr.rhs, env)
        if isinstance(a, CPointer) and isinstance(b, int):
            if op == "+":
                return a.shifted(b)
            if op == "-":
                return a.shifted(-b)
            raise S2FAError(f"bad pointer arithmetic {op}")
        if op in ("<", "<=", ">", ">=", "==", "!="):
            result = {
                "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
                "==": a == b, "!=": a != b,
            }[op]
            return 1 if result else 0
        both_int = isinstance(a, int) and isinstance(b, int)
        wrap = _i64 if both_int and self._is_long(expr) else _i32
        if op == "+":
            return wrap(a + b) if both_int else a + b
        if op == "-":
            return wrap(a - b) if both_int else a - b
        if op == "*":
            return wrap(a * b) if both_int else a * b
        if op == "/":
            if both_int:
                return wrap(_cdiv(a, b))
            if b == 0.0:
                return math.inf if a > 0 else (-math.inf if a < 0
                                               else math.nan)
            return a / b
        if op == "%":
            if not both_int:
                return math.fmod(a, b)
            return wrap(a - _cdiv(a, b) * b)
        if op == "<<":
            return wrap(a << (b & (63 if wrap is _i64 else 31)))
        if op == ">>":
            return wrap(a >> (b & (63 if wrap is _i64 else 31)))
        if op == "&":
            return wrap(a & b)
        if op == "|":
            return wrap(a | b)
        if op == "^":
            return wrap(a ^ b)
        raise S2FAError(f"bad binary operator {op}")

    def _call(self, expr: Call, env: dict):
        if expr.name in self.functions:
            args = [self._eval(a, env) for a in expr.args]
            return self.call_function(expr.name, args)
        fn = _MATH_FUNCS.get(expr.name)
        if fn is None:
            raise S2FAError(f"kernel calls unknown function {expr.name!r}")
        args = [self._eval(a, env) for a in expr.args]
        return fn(*args)
