"""Abstract syntax tree for the generated HLS C kernels.

The bytecode-to-C compiler lifts JVM bytecode into this AST; the Merlin-style
transformation library rewrites it; the HLS estimator schedules it; and the
FPGA device simulator interprets it for functional execution.  The AST
deliberately models the *subset of C that HLS tools accept for kernels*:

* no pointers except top-level array parameters,
* no dynamic allocation (``new`` with constant size becomes a static array),
* structured control flow only (``for``/``while``/``if``),
* calls only to other kernel-local functions or math intrinsics.

Nodes are plain mutable dataclasses.  Transform passes either mutate a
deep-copied kernel (see :meth:`CFunction.clone`) or rebuild subtrees.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

#: C base types accepted in kernels, mapped to their width in bits.
C_TYPE_WIDTHS = {
    "void": 0,
    "char": 8,
    "unsigned char": 8,
    "short": 16,
    "int": 32,
    "unsigned int": 32,
    "long": 64,
    "float": 32,
    "double": 64,
}

FLOAT_TYPES = frozenset({"float", "double"})


@dataclass(frozen=True)
class CType:
    """A scalar C type.  Arrays are represented by dims on decls/params."""

    base: str

    def __post_init__(self) -> None:
        if self.base not in C_TYPE_WIDTHS:
            raise ValueError(f"unknown C type: {self.base!r}")

    @property
    def width_bits(self) -> int:
        """Storage width of one element in bits."""
        return C_TYPE_WIDTHS[self.base]

    @property
    def is_float(self) -> bool:
        return self.base in FLOAT_TYPES

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.base


VOID = CType("void")
CHAR = CType("char")
UCHAR = CType("unsigned char")
SHORT = CType("short")
INT = CType("int")
LONG = CType("long")
FLOAT = CType("float")
DOUBLE = CType("double")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expressions."""

    def children(self) -> list["Expr"]:
        """Direct sub-expressions, used by generic walkers."""
        return []


@dataclass
class IntLit(Expr):
    """Integer literal."""

    value: int
    ctype: CType = field(default=INT)


@dataclass
class FloatLit(Expr):
    """Floating-point literal."""

    value: float
    ctype: CType = field(default=FLOAT)


@dataclass
class Var(Expr):
    """Reference to a local variable or parameter by name."""

    name: str


@dataclass
class ArrayRef(Expr):
    """``array[index]`` — possibly nested for multi-dimensional arrays."""

    array: Expr
    index: Expr

    def children(self) -> list[Expr]:
        return [self.array, self.index]


#: Binary operators permitted in kernels, in C spelling.
BINARY_OPS = frozenset(
    {
        "+", "-", "*", "/", "%",
        "<<", ">>", "&", "|", "^",
        "<", "<=", ">", ">=", "==", "!=",
        "&&", "||",
    }
)

COMPARISON_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})


@dataclass
class BinOp(Expr):
    """Binary operation ``lhs op rhs``."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def children(self) -> list[Expr]:
        return [self.lhs, self.rhs]


@dataclass
class UnOp(Expr):
    """Unary operation (``-``, ``!``, ``~``)."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ("-", "!", "~"):
            raise ValueError(f"unknown unary operator {self.op!r}")

    def children(self) -> list[Expr]:
        return [self.operand]


#: Math intrinsics the HLS backend knows how to schedule.  These are the
#: whitelisted "library calls" of Section 3.3 — everything else is rejected.
MATH_INTRINSICS = frozenset(
    {"expf", "logf", "sqrtf", "fabsf", "fminf", "fmaxf", "exp", "log", "sqrt",
     "fabs", "fmin", "fmax", "abs", "min", "max"}
)


@dataclass
class Call(Expr):
    """Call to a kernel-local function or a math intrinsic."""

    name: str
    args: list[Expr] = field(default_factory=list)

    def children(self) -> list[Expr]:
        return list(self.args)


@dataclass
class Cast(Expr):
    """C cast ``(type) expr``."""

    ctype: CType
    expr: Expr

    def children(self) -> list[Expr]:
        return [self.expr]


@dataclass
class Ternary(Expr):
    """Conditional expression ``cond ? then : other``."""

    cond: Expr
    then: Expr
    other: Expr

    def children(self) -> list[Expr]:
        return [self.cond, self.then, self.other]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for statements."""


@dataclass
class Block(Stmt):
    """A brace-delimited statement sequence."""

    stmts: list[Stmt] = field(default_factory=list)

    def __iter__(self) -> Iterator[Stmt]:
        return iter(self.stmts)


@dataclass
class VarDecl(Stmt):
    """Declaration of a scalar or constant-size array local.

    ``dims`` of ``()`` declares a scalar; otherwise each entry is a
    compile-time constant extent (S2FA compiles JVM ``new`` with constant
    size to exactly this — no dynamic allocation on the FPGA).
    ``init_values`` carries a flat constant initializer for lookup tables
    (e.g. the AES S-box) baked in from Scala class fields.
    """

    name: str
    ctype: CType
    dims: tuple[int, ...] = ()
    init: Optional[Expr] = None
    init_values: Optional[tuple] = None
    qualifiers: tuple[str, ...] = ()

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def element_count(self) -> int:
        count = 1
        for d in self.dims:
            count *= d
        return count


@dataclass
class Assign(Stmt):
    """Assignment ``lhs = rhs`` (lhs is a Var or ArrayRef)."""

    lhs: Expr
    rhs: Expr


@dataclass
class ExprStmt(Stmt):
    """Expression evaluated for side effects (void calls)."""

    expr: Expr


@dataclass
class If(Stmt):
    """``if (cond) { then } else { orelse }``."""

    cond: Expr
    then: Block
    orelse: Optional[Block] = None


@dataclass
class Pragma(Stmt):
    """A raw pragma line attached inside a block (Merlin/HLS directives)."""

    text: str


@dataclass
class For(Stmt):
    """Canonical counted loop ``for (var = start; var < bound; var += step)``.

    The bytecode-to-C compiler produces canonical loops whenever the source
    loop is an induction pattern, which is what the design-space analysis
    needs for trip counts.  ``label`` names the loop in the design space
    (assigned by :func:`repro.hlsc.analysis.assign_loop_labels`); ``pragmas``
    holds Merlin directives printed immediately before the loop.
    """

    var: str
    start: Expr = field(default_factory=lambda: IntLit(0))
    bound: Expr = field(default_factory=lambda: IntLit(0))
    step: int = 1
    body: Block = field(default_factory=Block)
    label: Optional[str] = None
    pragmas: list[Pragma] = field(default_factory=list)


@dataclass
class While(Stmt):
    """General loop with unknown trip count (fallback for non-canonical CFG)."""

    cond: Expr
    body: Block = field(default_factory=Block)
    label: Optional[str] = None
    pragmas: list[Pragma] = field(default_factory=list)


@dataclass
class Return(Stmt):
    """Function return, optionally with a value."""

    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    """Loop break (used by early-exit search loops)."""


@dataclass
class Continue(Stmt):
    """Loop continue."""


# ---------------------------------------------------------------------------
# Functions and kernels
# ---------------------------------------------------------------------------


@dataclass
class Param:
    """A function parameter.

    ``is_pointer`` marks array parameters (kernel interface buffers).
    ``elem_count`` records the per-task element count for interface buffers,
    which the Blaze serializer and the HLS bandwidth model both need.
    """

    name: str
    ctype: CType
    is_pointer: bool = False
    elem_count: Optional[int] = None
    direction: str = "in"  # "in" | "out" | "inout"


@dataclass
class CFunction:
    """A C function definition."""

    name: str
    return_type: CType
    params: list[Param] = field(default_factory=list)
    body: Block = field(default_factory=Block)

    def clone(self) -> "CFunction":
        """Deep copy, so transforms never alias the original tree."""
        return copy.deepcopy(self)

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"no parameter named {name!r} in {self.name}")


@dataclass
class CKernel:
    """A complete generated kernel: a top function plus helpers.

    ``top`` is the name of the wrapper inserted by the template engine
    (the ``kernel(int N, ...)`` function of Code 3 in the paper).
    ``metadata`` carries frontend facts the backend needs: the RDD
    transformation pattern ("map"/"reduce"), per-buffer element layouts,
    and the originating Scala class/method names.
    """

    functions: list[CFunction] = field(default_factory=list)
    top: str = "kernel"
    metadata: dict = field(default_factory=dict)
    #: Memo slot of :func:`repro.hls.analysis.analyze`: what the estimator
    #: derived from this exact tree.  It belongs to this object alone and
    #: dies with it — copies and pickles start without one, because a
    #: ``clone()`` exists to be transformed.
    analysis: object = field(default=None, init=False, repr=False,
                             compare=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "analysis": None}

    def clone(self) -> "CKernel":
        return copy.deepcopy(self)

    def function(self, name: str) -> CFunction:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r} in kernel")

    @property
    def top_function(self) -> CFunction:
        return self.function(self.top)


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------


def walk_exprs(node: Union[Expr, Stmt, Block, CFunction]) -> Iterator[Expr]:
    """Yield every expression in ``node`` in preorder."""
    if isinstance(node, CFunction):
        yield from walk_exprs(node.body)
        return
    if isinstance(node, Expr):
        yield node
        for child in node.children():
            yield from walk_exprs(child)
        return
    if isinstance(node, Block):
        for stmt in node.stmts:
            yield from walk_exprs(stmt)
        return
    # Statements
    if isinstance(node, VarDecl):
        if node.init is not None:
            yield from walk_exprs(node.init)
    elif isinstance(node, Assign):
        yield from walk_exprs(node.lhs)
        yield from walk_exprs(node.rhs)
    elif isinstance(node, ExprStmt):
        yield from walk_exprs(node.expr)
    elif isinstance(node, If):
        yield from walk_exprs(node.cond)
        yield from walk_exprs(node.then)
        if node.orelse is not None:
            yield from walk_exprs(node.orelse)
    elif isinstance(node, For):
        yield from walk_exprs(node.start)
        yield from walk_exprs(node.bound)
        yield from walk_exprs(node.body)
    elif isinstance(node, While):
        yield from walk_exprs(node.cond)
        yield from walk_exprs(node.body)
    elif isinstance(node, Return):
        if node.value is not None:
            yield from walk_exprs(node.value)
    # Pragma / Break / Continue have no expressions.


def walk_stmts(node: Union[Stmt, Block, CFunction]) -> Iterator[Stmt]:
    """Yield every statement in ``node`` in preorder (including blocks)."""
    if isinstance(node, CFunction):
        yield from walk_stmts(node.body)
        return
    if isinstance(node, Block):
        for stmt in node.stmts:
            yield stmt
            yield from walk_stmts(stmt)
        return
    if isinstance(node, If):
        yield from walk_stmts(node.then)
        if node.orelse is not None:
            yield from walk_stmts(node.orelse)
    elif isinstance(node, (For, While)):
        yield from walk_stmts(node.body)


def loops_in(node: Union[Stmt, Block, CFunction]) -> list[Union[For, While]]:
    """All loops under ``node`` in preorder."""
    return [s for s in walk_stmts(node) if isinstance(s, (For, While))]


def base_array_name(expr: Expr) -> Optional[str]:
    """For an (arbitrarily nested) ``ArrayRef``, return the base array name."""
    while isinstance(expr, ArrayRef):
        expr = expr.array
    if isinstance(expr, Var):
        return expr.name
    return None
