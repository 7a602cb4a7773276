"""Kernel analysis: loop hierarchy, trip counts, operation mix, dependences.

This is the reproduction of the design-space identification stage
(Section 4.1): the paper analyzes the kernel AST with ROSE plus a polyhedral
framework to find loop trip counts, available bit-widths and dependences.
Here the same facts are derived directly from the HLS-C AST.

The resulting :class:`LoopInfo` tree is consumed by:

* ``repro.hls.analysis`` — once per kernel, to distil the compact records
  the estimator, the feature extractor and the design-space builder
  share (nothing else should walk a kernel per design point),
* ``repro.merlin`` — to validate transform legality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import HLSError
from .ast import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    Call,
    Cast,
    CFunction,
    CKernel,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    If,
    IntLit,
    Return,
    Stmt,
    Ternary,
    UnOp,
    Var,
    VarDecl,
    While,
    base_array_name,
    walk_exprs,
)

# ---------------------------------------------------------------------------
# Operation classification
# ---------------------------------------------------------------------------

#: Categories the HLS cost model prices individually.
OP_CATEGORIES = (
    "iadd",   # integer add/sub/compare/logic/shift
    "imul",   # integer multiply
    "idiv",   # integer divide / modulo
    "fadd",   # float add/sub/compare
    "fmul",   # float multiply
    "fdiv",   # float divide
    "fspec",  # exp/log/sqrt — deep floating-point pipelines
    "load",   # array read
    "store",  # array write
)

_SPECIAL_CALLS = {"exp", "expf", "log", "logf", "sqrt", "sqrtf"}
_CHEAP_CALLS = {"fabs", "fabsf", "abs", "min", "max", "fmin", "fminf",
                "fmax", "fmaxf"}


def _is_float_expr(expr: Expr, float_vars: set[str]) -> bool:
    """Heuristic type query: is this expression floating-point?"""
    if isinstance(expr, FloatLit):
        return True
    if isinstance(expr, IntLit):
        return False
    if isinstance(expr, Var):
        return expr.name in float_vars
    if isinstance(expr, ArrayRef):
        name = base_array_name(expr)
        return name in float_vars if name else False
    if isinstance(expr, Cast):
        return expr.ctype.is_float
    if isinstance(expr, UnOp):
        return _is_float_expr(expr.operand, float_vars)
    if isinstance(expr, BinOp):
        return (_is_float_expr(expr.lhs, float_vars)
                or _is_float_expr(expr.rhs, float_vars))
    if isinstance(expr, Call):
        return expr.name in _SPECIAL_CALLS or expr.name in (
            "fminf", "fmaxf", "fabsf", "fmin", "fmax", "fabs")
    if isinstance(expr, Ternary):
        return (_is_float_expr(expr.then, float_vars)
                or _is_float_expr(expr.other, float_vars))
    return False


@dataclass
class OpCounts:
    """Operation counts for one execution of a region (child loops excluded)."""

    counts: dict[str, int] = field(default_factory=dict)

    def add(self, category: str, amount: int = 1) -> None:
        self.counts[category] = self.counts.get(category, 0) + amount

    def get(self, category: str) -> int:
        return self.counts.get(category, 0)

    def merge(self, other: "OpCounts", scale: int = 1) -> None:
        for category, count in other.counts.items():
            self.add(category, count * scale)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OpCounts({inner})"


def _pow2_const_operand(expr: "BinOp") -> bool:
    """True when either operand is a positive power-of-two literal."""
    for side in (expr.lhs, expr.rhs):
        if isinstance(side, IntLit) and side.value > 0 \
                and (side.value & (side.value - 1)) == 0:
            return True
    return False


def _count_expr(expr: Expr, ops: OpCounts, float_vars: set[str]) -> None:
    """Accumulate op counts for one expression tree."""
    if isinstance(expr, ArrayRef):
        ops.add("load")
        _count_expr(expr.index, ops, float_vars)
        inner = expr.array
        while isinstance(inner, ArrayRef):
            _count_expr(inner.index, ops, float_vars)
            inner = inner.array
        return
    if isinstance(expr, BinOp):
        is_float = _is_float_expr(expr, float_vars)
        if expr.op in ("&", "<<", ">>") and (
                isinstance(expr.lhs, IntLit) or isinstance(expr.rhs, IntLit)):
            # Constant masks and shifts are pure wiring in hardware.
            _count_expr(expr.lhs, ops, float_vars)
            _count_expr(expr.rhs, ops, float_vars)
            return
        if expr.op in ("*", "/", "%") and not is_float \
                and _pow2_const_operand(expr):
            # HLS strength-reduces x*2^k, x/2^k, x%2^k to shifts/masks.
            _count_expr(expr.lhs, ops, float_vars)
            _count_expr(expr.rhs, ops, float_vars)
            return
        elif expr.op in ("*",):
            ops.add("fmul" if is_float else "imul")
        elif expr.op in ("/", "%"):
            ops.add("fdiv" if is_float else "idiv")
        elif expr.op in ("&&", "||"):
            ops.add("iadd")
        else:
            ops.add("fadd" if is_float else "iadd")
        _count_expr(expr.lhs, ops, float_vars)
        _count_expr(expr.rhs, ops, float_vars)
        return
    if isinstance(expr, UnOp):
        ops.add("fadd" if _is_float_expr(expr.operand, float_vars) else "iadd")
        _count_expr(expr.operand, ops, float_vars)
        return
    if isinstance(expr, Call):
        if expr.name in _SPECIAL_CALLS:
            ops.add("fspec")
        elif expr.name in _CHEAP_CALLS:
            ops.add("fadd")
        for arg in expr.args:
            _count_expr(arg, ops, float_vars)
        return
    if isinstance(expr, Cast):
        _count_expr(expr.expr, ops, float_vars)
        return
    if isinstance(expr, Ternary):
        ops.add("iadd")  # the select mux
        for child in (expr.cond, expr.then, expr.other):
            _count_expr(child, ops, float_vars)
        return
    # Literals / Var: free.


# ---------------------------------------------------------------------------
# Loop tree
# ---------------------------------------------------------------------------


@dataclass
class LoopInfo:
    """Facts about one loop needed by DSE and HLS estimation."""

    label: str
    node: For | While
    depth: int
    trip_count: Optional[int]
    parent: Optional["LoopInfo"] = None
    children: list["LoopInfo"] = field(default_factory=list)
    #: per-iteration op counts of the loop body, child-loop bodies excluded
    body_ops: OpCounts = field(default_factory=OpCounts)
    #: scalar reduction: an accumulation into a variable live across iters
    #: (associative ``x = x op e`` or a guarded min/max — tree-reducible)
    is_reduction: bool = False
    #: loop-carried dependence through an array (e.g. S-W wavefront)
    carried_array_dep: bool = False
    #: general loop-carried scalar chain (read-before-write across
    #: statements, not tree-reducible — e.g. S-W's running ``left`` value)
    carried_scalar_dep: bool = False
    #: latency (model cycles) of the recurrence, when one exists
    recurrence_ops: OpCounts = field(default_factory=OpCounts)
    arrays_read: set[str] = field(default_factory=set)
    arrays_written: set[str] = field(default_factory=set)
    #: True for the task loop inserted by the map/reduce template
    is_task_loop: bool = False

    @property
    def has_carried_dep(self) -> bool:
        return (self.is_reduction or self.carried_array_dep
                or self.carried_scalar_dep)

    def self_and_descendants(self) -> list["LoopInfo"]:
        result = [self]
        for child in self.children:
            result.extend(child.self_and_descendants())
        return result


def _const_value(expr: Expr) -> Optional[int]:
    """Evaluate a compile-time-constant integer expression, if possible."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, UnOp) and expr.op == "-":
        inner = _const_value(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, BinOp):
        lhs, rhs = _const_value(expr.lhs), _const_value(expr.rhs)
        if lhs is None or rhs is None:
            return None
        try:
            return {
                "+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs,
                "/": lhs // rhs if rhs else None,
                "%": lhs % rhs if rhs else None,
            }.get(expr.op)
        except ZeroDivisionError:
            return None
    return None


def loop_trip_count(loop: For | While) -> Optional[int]:
    """Static trip count of a canonical loop, or None when data-dependent."""
    if isinstance(loop, While):
        return None
    start = _const_value(loop.start)
    bound = _const_value(loop.bound)
    if start is None or bound is None or loop.step <= 0:
        return None
    if bound <= start:
        return 0
    return -(-(bound - start) // loop.step)


def _float_var_names(func: CFunction) -> set[str]:
    """Names of params/locals with floating-point element type."""
    names = {p.name for p in func.params if p.ctype.is_float}
    for stmt in _all_stmts(func.body):
        if isinstance(stmt, VarDecl) and stmt.ctype.is_float:
            names.add(stmt.name)
    return names


def _all_stmts(block: Block) -> list[Stmt]:
    out: list[Stmt] = []
    for stmt in block.stmts:
        out.append(stmt)
        if isinstance(stmt, If):
            out.extend(_all_stmts(stmt.then))
            if stmt.orelse is not None:
                out.extend(_all_stmts(stmt.orelse))
        elif isinstance(stmt, (For, While)):
            out.extend(_all_stmts(stmt.body))
    return out


def _direct_stmts(block: Block) -> list[Stmt]:
    """Statements of a block, descending into ifs but not into loops."""
    out: list[Stmt] = []
    for stmt in block.stmts:
        if isinstance(stmt, (For, While)):
            continue
        out.append(stmt)
        if isinstance(stmt, If):
            out.extend(_direct_stmts(stmt.then))
            if stmt.orelse is not None:
                out.extend(_direct_stmts(stmt.orelse))
    return out


def _reads_var(expr: Expr, name: str) -> bool:
    return any(isinstance(e, Var) and e.name == name
               for e in walk_exprs(expr))


def _scalar_dep_kinds(loop: For | While, declared_inside: set[str],
                      float_vars: set[str]
                      ) -> tuple[bool, OpCounts, bool]:
    """Classify loop-carried scalar dependences in the body.

    Returns ``(is_reduction, recurrence_ops, carried_scalar_dep)``:

    * accumulations ``x = x op e`` and guarded min/max updates are
      *reductions* (associative — Merlin's tree reduction applies),
    * any other variable that is both read and written across iterations
      is a general carried scalar chain (serializes the loop).
    """
    recurrence = OpCounts()
    is_reduction = False
    carried = False

    # Gather per-variable write/read facts over direct statements,
    # remembering guard conditions for writes inside `if`s.
    writes: dict[str, list[tuple[Assign, Optional[Expr]]]] = {}
    reads: dict[str, int] = {}

    def scan(stmts, guard: Optional[Expr]) -> None:
        for stmt in stmts:
            if isinstance(stmt, If):
                for e in walk_exprs(stmt.cond):
                    if isinstance(e, Var):
                        reads[e.name] = reads.get(e.name, 0) + 1
                scan(stmt.then.stmts, stmt.cond)
                if stmt.orelse is not None:
                    scan(stmt.orelse.stmts, stmt.cond)
                continue
            if isinstance(stmt, (For, While)):
                continue
            if isinstance(stmt, Assign) and isinstance(stmt.lhs, Var):
                writes.setdefault(stmt.lhs.name, []).append((stmt, guard))
                for e in walk_exprs(stmt.rhs):
                    if isinstance(e, Var):
                        reads[e.name] = reads.get(e.name, 0) + 1
                continue
            for e in walk_exprs(stmt) if not isinstance(stmt, Block) else []:
                if isinstance(e, Var):
                    reads[e.name] = reads.get(e.name, 0) + 1

    scan(loop.body.stmts, None)

    loop_var = loop.var if isinstance(loop, For) else None
    for name, write_list in writes.items():
        if name in declared_inside or name == loop_var:
            continue
        self_reads = [w for w, _ in write_list if _reads_var(w.rhs, name)]
        if self_reads:
            is_reduction = True
            for stmt in self_reads:
                _count_expr(stmt.rhs, recurrence, float_vars)
            continue
        # Guarded min/max: every write sits under a condition reading the
        # variable, and the variable is read nowhere else.
        guards_read_self = all(
            guard is not None and _reads_var(guard, name)
            for _, guard in write_list)
        guard_reads = sum(
            1 for _, guard in write_list
            if guard is not None and _reads_var(guard, name))
        other_reads = reads.get(name, 0) - guard_reads
        if guards_read_self and other_reads <= 0:
            is_reduction = True
            recurrence.add("iadd")  # the compare/select chain
            continue
        if reads.get(name, 0) > 0:
            carried = True
    return is_reduction, recurrence, carried


def _index_offsets(index: Expr, var: str) -> Optional[int]:
    """If ``index`` is ``var + c`` / ``var - c`` / ``var``, return c."""
    if isinstance(index, Var) and index.name == var:
        return 0
    if isinstance(index, BinOp) and index.op in ("+", "-"):
        if isinstance(index.lhs, Var) and index.lhs.name == var:
            c = _const_value(index.rhs)
            if c is not None:
                return c if index.op == "+" else -c
        if (index.op == "+" and isinstance(index.rhs, Var)
                and index.rhs.name == var):
            c = _const_value(index.lhs)
            if c is not None:
                return c
    return None


def _detect_array_carried_dep(loop: For | While) -> bool:
    """Conservatively detect a loop-carried dependence through an array.

    A write ``a[f(i)]`` with a read ``a[g(i)]`` in the same body carries a
    dependence across iterations unless both indices are the same affine
    expression of the loop variable.  This is a syntactic approximation of
    what the paper obtains from its polyhedral analysis; it is exact for the
    access patterns our compiler emits (affine ``i + c`` indices).
    """
    var = loop.var if isinstance(loop, For) else None
    writes: dict[str, list[Expr]] = {}
    reads: dict[str, list[Expr]] = {}
    for stmt in _direct_stmts(loop.body):
        if isinstance(stmt, Assign):
            if isinstance(stmt.lhs, ArrayRef):
                name = base_array_name(stmt.lhs)
                if name:
                    writes.setdefault(name, []).append(stmt.lhs.index)
            for e in walk_exprs(stmt.rhs):
                if isinstance(e, ArrayRef):
                    name = base_array_name(e)
                    if name:
                        reads.setdefault(name, []).append(e.index)
            if isinstance(stmt.lhs, ArrayRef):
                for e in walk_exprs(stmt.lhs.index):
                    if isinstance(e, ArrayRef):
                        name = base_array_name(e)
                        if name:
                            reads.setdefault(name, []).append(e.index)
    for name, write_indices in writes.items():
        if name not in reads:
            continue
        for w_idx in write_indices:
            for r_idx in reads[name]:
                if var is None:
                    return True  # unknown induction: assume carried
                w_off = _index_offsets(w_idx, var)
                r_off = _index_offsets(r_idx, var)
                if w_off is None or r_off is None:
                    return True  # non-affine access: be conservative
                if w_off != r_off:
                    return True
    return False


def build_loop_tree(func: CFunction) -> list[LoopInfo]:
    """Build the loop hierarchy of ``func``; returns root loops in order.

    Loops must already be labelled (see :func:`assign_loop_labels`).
    """
    float_vars = _float_var_names(func)
    roots: list[LoopInfo] = []

    def visit(block: Block, parent: Optional[LoopInfo], depth: int) -> None:
        for stmt in block.stmts:
            if isinstance(stmt, (For, While)):
                if stmt.label is None:
                    raise HLSError(
                        "loop has no label; run assign_loop_labels first")
                info = LoopInfo(
                    label=stmt.label,
                    node=stmt,
                    depth=depth,
                    trip_count=loop_trip_count(stmt),
                    parent=parent,
                )
                declared = {
                    s.name for s in _all_stmts(stmt.body)
                    if isinstance(s, VarDecl)
                }
                (info.is_reduction, info.recurrence_ops,
                 info.carried_scalar_dep) = _scalar_dep_kinds(
                    stmt, declared, float_vars)
                info.carried_array_dep = _detect_array_carried_dep(stmt)
                for body_stmt in _direct_stmts(stmt.body):
                    _count_stmt(body_stmt, info.body_ops, float_vars)
                _collect_array_use(stmt, info)
                # Non-innermost loops: an array both read and written
                # anywhere in the nest carries a cross-iteration
                # dependence (e.g. S-W's row buffers, AES's state across
                # rounds) unless it was locally proven independent above.
                has_inner_loops = any(
                    isinstance(s, (For, While))
                    for s in _all_stmts(stmt.body))
                if has_inner_loops and not info.carried_array_dep:
                    rw = info.arrays_read & info.arrays_written
                    if rw:
                        info.carried_array_dep = True
                if parent is None:
                    roots.append(info)
                else:
                    parent.children.append(info)
                visit(stmt.body, info, depth + 1)
            elif isinstance(stmt, If):
                visit(stmt.then, parent, depth)
                if stmt.orelse is not None:
                    visit(stmt.orelse, parent, depth)
    visit(func.body, None, 0)
    return roots


def _count_stmt(stmt: Stmt, ops: OpCounts, float_vars: set[str]) -> None:
    if isinstance(stmt, VarDecl):
        if stmt.init is not None:
            _count_expr(stmt.init, ops, float_vars)
    elif isinstance(stmt, Assign):
        if isinstance(stmt.lhs, ArrayRef):
            ops.add("store")
            _count_expr(stmt.lhs.index, ops, float_vars)
        _count_expr(stmt.rhs, ops, float_vars)
    elif isinstance(stmt, ExprStmt):
        _count_expr(stmt.expr, ops, float_vars)
    elif isinstance(stmt, If):
        _count_expr(stmt.cond, ops, float_vars)
    elif isinstance(stmt, Return):
        if stmt.value is not None:
            _count_expr(stmt.value, ops, float_vars)


def _collect_array_use(loop: For | While, info: LoopInfo) -> None:
    for stmt in _all_stmts(loop.body):
        if isinstance(stmt, Assign):
            if isinstance(stmt.lhs, ArrayRef):
                name = base_array_name(stmt.lhs)
                if name:
                    info.arrays_written.add(name)
            for e in walk_exprs(stmt.rhs):
                if isinstance(e, ArrayRef):
                    name = base_array_name(e)
                    if name:
                        info.arrays_read.add(name)


def assign_loop_labels(func: CFunction, prefix: str = "L") -> list[str]:
    """Assign hierarchical labels (``L0``, ``L0_0``, ``L1``...) to all loops.

    Returns the labels in preorder.  Labels are stable across clones of the
    same function, which is what lets a design-point configuration refer to
    loops by name.
    """
    labels: list[str] = []

    def visit(block: Block, path: list[int]) -> None:
        index = 0
        for stmt in block.stmts:
            if isinstance(stmt, (For, While)):
                here = path + [index]
                stmt.label = prefix + "_".join(str(i) for i in here)
                labels.append(stmt.label)
                visit(stmt.body, here)
                index += 1
            elif isinstance(stmt, If):
                visit(stmt.then, path)
                if stmt.orelse is not None:
                    visit(stmt.orelse, path)
    visit(func.body, [])
    return labels


def label_kernel(kernel: CKernel) -> list[str]:
    """Label loops in every function; the top function gets bare ``L`` labels.

    Helper functions inside the kernel get labels prefixed with their
    function name so the flat design space never collides.
    """
    labels: list[str] = []
    for func in kernel.functions:
        prefix = "L" if func.name == kernel.top else f"{func.name}_L"
        labels.extend(assign_loop_labels(func, prefix))
    return labels


def find_loop(func: CFunction, label: str) -> For | While:
    """Locate a labelled loop inside ``func``."""
    for stmt in _all_stmts(func.body):
        if isinstance(stmt, (For, While)) and stmt.label == label:
            return stmt
    raise KeyError(f"no loop labelled {label!r} in {func.name}")


def direct_calls(block: Block, names: set[str]) -> list[Call]:
    """Calls to ``names`` in a block's direct statements (child loops
    excluded, ``if`` branches included)."""
    calls: list[Call] = []
    for stmt in _direct_stmts(block):
        exprs: list[Expr] = []
        if isinstance(stmt, VarDecl) and stmt.init is not None:
            exprs.append(stmt.init)
        elif isinstance(stmt, Assign):
            exprs.extend([stmt.lhs, stmt.rhs])
        elif isinstance(stmt, ExprStmt):
            exprs.append(stmt.expr)
        elif isinstance(stmt, If):
            exprs.append(stmt.cond)
        elif isinstance(stmt, Return) and stmt.value is not None:
            exprs.append(stmt.value)
        for root in exprs:
            for e in walk_exprs(root):
                if isinstance(e, Call) and e.name in names:
                    calls.append(e)
    return calls


def function_toplevel_ops(func: CFunction) -> OpCounts:
    """Op counts of a function's straight-line (non-loop) statements."""
    float_vars = _float_var_names(func)
    ops = OpCounts()
    for stmt in _direct_stmts(func.body):
        _count_stmt(stmt, ops, float_vars)
    return ops


def kernel_loop_tree(kernel: CKernel) -> list[LoopInfo]:
    """Loop tree of the top function with helper-function loops grafted in.

    Calls to kernel-local helper functions are treated as inlined (the
    Merlin compiler inlines before transforming): a helper's loops become
    children of the loop containing the call site, and the helper's
    straight-line ops are merged into that loop's per-iteration op counts.
    """
    top = kernel.top_function
    helpers = {f.name: f for f in kernel.functions if f.name != kernel.top}
    roots = build_loop_tree(top)
    if kernel.metadata.get("batch_size"):
        for root in roots:
            root.is_task_loop = True
            if root.trip_count is None:
                root.trip_count = kernel.metadata["batch_size"]

    def expand_all(info: LoopInfo, seen: tuple[str, ...]) -> None:
        original_children = list(info.children)
        for call in direct_calls(info.node.body, set(helpers)):
            if call.name in seen:
                raise HLSError(
                    f"recursive helper call to {call.name} cannot be "
                    f"inlined for the FPGA")
            callee = helpers[call.name]
            info.body_ops.merge(function_toplevel_ops(callee))
            for child in build_loop_tree(callee):
                child.parent = info
                _bump_depth(child, info.depth + 1)
                info.children.append(child)
                expand_all(child, seen + (call.name,))
        for child in original_children:
            expand_all(child, seen)

    for root in roots:
        expand_all(root, ())
    return roots


def _bump_depth(info: LoopInfo, depth: int) -> None:
    info.depth = depth
    for child in info.children:
        _bump_depth(child, depth + 1)


def flatten_loop_tree(roots: list[LoopInfo]) -> list[LoopInfo]:
    """Preorder flattening of a loop tree."""
    out: list[LoopInfo] = []
    for root in roots:
        out.extend(root.self_and_descendants())
    return out


def local_buffers(func: CFunction) -> list[VarDecl]:
    """All constant-size array declarations (on-chip BRAM candidates)."""
    return [
        s for s in _all_stmts(func.body)
        if isinstance(s, VarDecl) and s.is_array
    ]
