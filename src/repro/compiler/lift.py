"""Bytecode-to-C lifting via abstract stack interpretation.

This is the reproduction of S2FA's APARAPI-derived code generator
(Section 3.2): each JVM method is symbolically executed over a stack of C
expressions, control flow is re-structured (while/for/if/ternary), and
object-oriented constructs are rewritten:

* specialized tuple accessors (``in._1``) become references to flattened
  interface buffers,
* ``this``-field reads become baked-in constants (scalars) or ``static
  const`` lookup tables (arrays) — Blaze broadcasts become ROM,
* ``String.charAt``/``length`` become array indexing / a constant,
* ``new`` with constant size becomes a fixed-size local array.

The lifter only accepts the structured patterns our frontend (and scalac,
for the paper) emits; anything else raises :class:`DecompileError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import DecompileError
from ..hlsc.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    Call,
    Cast,
    CFunction,
    CHAR,
    CType,
    DOUBLE,
    Expr,
    FLOAT,
    If,
    INT,
    IntLit,
    FloatLit,
    LONG,
    Param,
    Return,
    SHORT,
    Stmt,
    UnOp,
    Var,
    VarDecl,
    VOID,
    While,
)
from ..jvm.classfile import Instr, JMethod
from ..jvm.interpreter import JArray
from ..utils import NameAllocator

# ---------------------------------------------------------------------------
# Bindings: what a JVM local slot / object means in C
# ---------------------------------------------------------------------------


@dataclass
class ScalarParam:
    """A primitive kernel parameter passed by value."""

    name: str
    ctype: CType


@dataclass
class BufferParam:
    """A pointer parameter (flattened array/string leaf)."""

    name: str
    ctype: CType
    elem_count: Optional[int]


@dataclass
class CompositeParam:
    """A composite parameter: accessor -> leaf binding.

    Keys are 1-based indices for tuples (``_1`` accessors) or field
    names for record classes (``getfield`` access).
    """

    leaves: dict  # int (tuple index) or str (record field) -> binding


@dataclass
class ThisParam:
    """The kernel object; fields resolve to baked constants."""

    class_name: str
    field_values: dict[str, object]


@dataclass
class _TupleValue:
    """A tuple under construction / constructed (``new``+``<init>``)."""

    class_name: str
    elems: Optional[list[Expr]] = None


@dataclass
class _NewArrayValue:
    """Result of ``newarray`` before it is bound to a local."""

    ctype: CType
    size: int


@dataclass
class _CmpResult:
    """Result of fcmpl/fcmpg/dcmp/lcmp awaiting its ifXX consumer."""

    lhs: Expr
    rhs: Expr


_DESC_TO_CTYPE = {
    "I": INT, "F": FLOAT, "D": DOUBLE, "J": LONG,
    "C": CHAR, "S": SHORT, "B": CHAR, "Z": INT,
}


def ctype_for_descriptor(descriptor: str) -> CType:
    try:
        return _DESC_TO_CTYPE[descriptor]
    except KeyError:
        raise DecompileError(
            f"no C type for descriptor {descriptor!r}") from None


_NEGATE = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=",
           ">=": "<"}

_CMP_OF_IF = {"eq": "==", "ne": "!=", "lt": "<", "ge": ">=",
              "gt": ">", "le": "<="}


def negate(expr: Expr) -> Expr:
    """Logical negation, simplified for comparisons."""
    if isinstance(expr, BinOp) and expr.op in _NEGATE:
        return BinOp(_NEGATE[expr.op], expr.lhs, expr.rhs)
    if isinstance(expr, UnOp) and expr.op == "!":
        return expr.operand
    return UnOp("!", expr)


_MATH_TO_C = {
    "exp": "exp", "log": "log", "sqrt": "sqrt", "pow": "pow",
    "floor": "floor", "ceil": "ceil",
    "abs": "fabs", "min": "fmin", "max": "fmax",
}

_INT_MATH_TO_C = {"abs": "abs", "min": "min", "max": "max"}


@dataclass
class LiftResult:
    """Outcome of lifting one method."""

    body: Block
    #: pending output mappings discovered at return sites:
    #: list of ("rename", local_name, out_name) or ("store", out_name, expr)
    output_actions: list[tuple] = field(default_factory=list)
    return_expr: Optional[Expr] = None


class Lifter:
    """Lifts one JVM method into a C statement block."""

    def __init__(self, method: JMethod, *,
                 slot_bindings: dict[int, object],
                 out_leaves: Optional[list] = None,
                 helper_names: Optional[dict[tuple[str, str], str]] = None,
                 is_call: bool = False,
                 names: Optional[NameAllocator] = None,
                 record_fields: Optional[dict[str, list[str]]] = None):
        self.method = method
        self.code = method.code
        self.slot_bindings = dict(slot_bindings)
        self.out_leaves = out_leaves or []
        self.helper_names = helper_names or {}
        self.is_call = is_call
        #: record class name -> ordered field names (for getfield on
        #: locally constructed record values)
        self.record_fields = record_fields or {}
        self.names = names or NameAllocator()
        #: slot -> (C var name, ctype, dims) once declared
        self.slot_vars: dict[int, tuple[str, CType, tuple[int, ...]]] = {}
        self.const_tables: list[VarDecl] = []
        self.output_actions: list[tuple] = []
        self.return_expr: Optional[Expr] = None
        self._offset_to_index = {
            ins.offset: i for i, ins in enumerate(self.code)}
        #: target offset -> indices of the ``goto``s jumping there,
        #: ascending
        self._gotos_to: dict[int, list[int]] = {}
        for i, ins in enumerate(self.code):
            if ins.mnemonic == "goto":
                self._gotos_to.setdefault(ins.operands[0], []).append(i)

    # ------------------------------------------------------------------

    def lift(self) -> LiftResult:
        stmts: list[Stmt] = []
        stack: list = []
        self._lift_range(0, len(self.code), stack, stmts)
        body = Block(list(self.const_tables) + stmts)
        return LiftResult(body=body, output_actions=self.output_actions,
                          return_expr=self.return_expr)

    # ------------------------------------------------------------------
    # Range lifting
    # ------------------------------------------------------------------

    def _index_of(self, offset: int) -> int:
        try:
            return self._offset_to_index[offset]
        except KeyError:
            raise DecompileError(
                f"branch to offset {offset} that is not an instruction "
                f"boundary") from None

    def _back_edge_from(self, header: int, hi: int) -> Optional[int]:
        """Index of a ``goto`` in (header, hi) jumping back to ``header``."""
        for j in reversed(self._gotos_to.get(self.code[header].offset, ())):
            if header < j < hi:
                return j
        return None

    def _lift_range(self, lo: int, hi: int, stack: list,
                    stmts: list[Stmt],
                    conjunct_target: Optional[int] = None,
                    conjuncts: Optional[list] = None) -> None:
        """Lift instructions [lo, hi) into ``stmts``.

        When ``conjunct_target`` is given, conditional branches to that
        offset encountered *before any statement* are short-circuit
        conjuncts of the enclosing condition (``a && b`` chains in loop
        and ``if`` headers); their negations are appended to
        ``conjuncts`` instead of starting a nested ``if``.
        """
        i = lo
        while i < hi:
            instr = self.code[i]
            m = instr.mnemonic

            back = self._back_edge_from(i, hi)
            if back is not None:
                i = self._lift_loop(i, back, stack, stmts)
                continue

            if m.startswith("if"):
                consumed = self._try_diamond(i, stack)
                if consumed is not None:
                    i = consumed
                    continue
                if conjunct_target is not None and not stmts \
                        and instr.operands[0] == conjunct_target:
                    taken = self._branch_condition(instr, stack)
                    conjuncts.append(negate(taken))
                    i += 1
                    continue
                i = self._lift_if(i, hi, stack, stmts)
                continue

            if m == "goto":
                raise DecompileError(
                    f"unstructured goto at offset {instr.offset}")

            if m in ("ireturn", "freturn", "dreturn", "lreturn",
                     "areturn", "return"):
                self._lift_return(m, stack, stmts)
                i += 1
                continue

            self._step(instr, stack, stmts)
            i += 1

    # -- loops -----------------------------------------------------------

    def _lift_loop(self, header: int, back: int, stack: list,
                   stmts: list[Stmt]) -> int:
        """Lift the loop spanning [header, back]; returns next index.

        The loop header's exit test (possibly an ``&&`` chain of several
        conditional branches to the loop exit) is folded into the ``while``
        condition; everything after the first statement is the body.
        """
        exit_offset = (self.code[back + 1].offset if back + 1 < len(self.code)
                       else self.code[back].offset + 3)
        conjuncts: list[Expr] = []
        body_stmts: list[Stmt] = []
        body_stack: list = list(stack)
        self._lift_range(header, back, body_stack, body_stmts,
                         conjunct_target=exit_offset, conjuncts=conjuncts)
        if not conjuncts:
            raise DecompileError(
                f"loop at offset {self.code[header].offset} has no exit "
                f"condition (infinite loops are unsupported)")
        if len(body_stack) != len(stack):
            raise DecompileError("loop body leaks operand-stack values")
        cond_expr = conjuncts[0]
        for conjunct in conjuncts[1:]:
            cond_expr = BinOp("&&", cond_expr, conjunct)
        stmts.append(While(cond=cond_expr, body=Block(body_stmts)))
        return back + 1

    # -- conditionals ------------------------------------------------------

    def _try_diamond(self, i: int, stack: list) -> Optional[int]:
        """Recognize the boolean-materialization diamond:

        ``ifXX Lf; iconst_1; goto Le; Lf: iconst_0; Le:``

        Pushes the (un-negated) condition value and returns the index just
        past the diamond, or None when the shape does not match.
        """
        if i + 3 >= len(self.code):
            return None
        b0, b1, b2, b3 = self.code[i:i + 4]
        if b1.mnemonic != "iconst_1" or b2.mnemonic != "goto" \
                or b3.mnemonic != "iconst_0":
            return None
        if b0.operands[0] != b3.offset:
            return None
        end_offset = b3.offset + 1
        if b2.operands[0] != end_offset:
            return None
        taken = self._branch_condition(b0, stack)
        stack.append(negate(taken))
        return i + 4

    def _lift_if(self, i: int, hi: int, stack: list,
                 stmts: list[Stmt]) -> int:
        instr = self.code[i]
        target = instr.operands[0]
        taken = self._branch_condition(instr, stack)
        conjuncts = [negate(taken)]  # conditions under which *then* runs

        then_end = self._index_of(target)
        if then_end > hi:
            raise DecompileError(
                f"branch at offset {instr.offset} escapes the current "
                f"structured region")
        # Trailing goto in the then-range marks an else-branch.
        else_start = then_end
        merge = then_end
        has_else = False
        if then_end - 1 > i and self.code[then_end - 1].mnemonic == "goto":
            goto = self.code[then_end - 1]
            goto_target = goto.operands[0]
            if goto_target > goto.offset:  # forward: join point
                merge = self._index_of(goto_target)
                has_else = merge > else_start
                if not has_else:
                    merge = then_end

        then_stmts: list[Stmt] = []
        then_stack = list(stack)
        then_last = then_end - 1 if has_else else then_end
        # Further branches to the same target before any then-statement
        # are && conjuncts of this if's condition.
        self._lift_range(i + 1, then_last, then_stack, then_stmts,
                         conjunct_target=target, conjuncts=conjuncts)
        cond = conjuncts[0]
        for conjunct in conjuncts[1:]:
            cond = BinOp("&&", cond, conjunct)

        if not has_else:
            if len(then_stack) != len(stack):
                raise DecompileError(
                    "if-without-else leaves a value on the stack")
            stmts.append(If(cond=cond, then=Block(then_stmts)))
            return merge

        else_stmts: list[Stmt] = []
        else_stack = list(stack)
        self._lift_range(else_start, merge, else_stack, else_stmts)

        if len(then_stack) == len(stack) + 1 and \
                len(else_stack) == len(stack) + 1:
            # Value context (ternary / if-expression).
            then_val = then_stack[-1]
            else_val = else_stack[-1]
            from ..hlsc.ast import Ternary
            if not then_stmts and not else_stmts:
                stack.append(Ternary(cond=cond, then=then_val,
                                     other=else_val))
                return merge
            temp = self.names.fresh("_t")
            ctype = self._guess_ctype(then_val)
            stmts.append(VarDecl(name=temp, ctype=ctype))
            then_stmts.append(Assign(Var(temp), then_val))
            else_stmts.append(Assign(Var(temp), else_val))
            stmts.append(If(cond=cond, then=Block(then_stmts),
                            orelse=Block(else_stmts)))
            stack.append(Var(temp))
            return merge

        if len(then_stack) != len(stack) or len(else_stack) != len(stack):
            raise DecompileError("unbalanced stack across if/else branches")
        stmts.append(If(cond=cond, then=Block(then_stmts),
                        orelse=Block(else_stmts)))
        return merge

    def _branch_condition(self, instr: Instr, stack: list) -> Expr:
        """Expression that is true exactly when the branch is taken."""
        m = instr.mnemonic
        if m.startswith("if_icmp"):
            rhs = stack.pop()
            lhs = stack.pop()
            return BinOp(_CMP_OF_IF[m[7:]], lhs, rhs)
        if m in ("ifeq", "ifne", "iflt", "ifge", "ifgt", "ifle"):
            value = stack.pop()
            op = _CMP_OF_IF[m[2:]]
            if isinstance(value, _CmpResult):
                return BinOp(op, value.lhs, value.rhs)
            if op == "!=":
                return value if _is_boolish(value) else \
                    BinOp("!=", value, IntLit(0))
            if op == "==":
                return negate(value) if _is_boolish(value) else \
                    BinOp("==", value, IntLit(0))
            return BinOp(op, value, IntLit(0))
        raise DecompileError(f"unsupported branch opcode {m}")

    # -- returns -------------------------------------------------------------

    def _lift_return(self, m: str, stack: list, stmts: list[Stmt]) -> None:
        if m == "return":
            if not self.is_call:
                stmts.append(Return())
            return
        value = stack.pop()
        if not self.is_call:
            if isinstance(value, (_TupleValue, _NewArrayValue, BufferParam,
                                  CompositeParam)):
                raise DecompileError(
                    "helper functions may only return scalars")
            self.return_expr = value
            stmts.append(Return(value))
            return
        # Top-level call(): map the returned value onto output leaves,
        # flattening nested tuples (and aliased input subtrees) in the
        # same depth-first order the interface layout uses.
        elems: list = []
        self._flatten_returned(value, elems)
        if len(elems) != len(self.out_leaves):
            raise DecompileError(
                f"kernel returns {len(elems)} values but the interface has "
                f"{len(self.out_leaves)} output leaves")
        for elem, leaf in zip(elems, self.out_leaves):
            if isinstance(elem, Var) and self._is_local_array(elem.name):
                self.output_actions.append(("rename", elem.name, leaf.name))
            elif isinstance(elem, Expr):
                stmts.append(
                    Assign(ArrayRef(Var(leaf.name), IntLit(0)), elem))
            else:
                raise DecompileError(
                    f"cannot map returned value {elem!r} to output leaf "
                    f"{leaf.name}")

    def _flatten_returned(self, value, out: list) -> None:
        if isinstance(value, _TupleValue):
            if value.elems is None:
                raise DecompileError("returned tuple was never constructed")
            for elem in value.elems:
                self._flatten_returned(elem, out)
            return
        if isinstance(value, CompositeParam):
            # Returning (part of) the input: expand its leaf bindings.
            # The dict preserves declaration order (tuple indices 1..n or
            # record fields), which matches the layout's flattening.
            for leaf in value.leaves.values():
                self._flatten_returned(leaf, out)
            return
        if isinstance(value, ScalarParam):
            out.append(Var(value.name))
            return
        out.append(value)

    def _is_local_array(self, name: str) -> bool:
        return any(v[0] == name and v[2] for v in self.slot_vars.values())

    # ------------------------------------------------------------------
    # Straight-line symbolic execution
    # ------------------------------------------------------------------

    def _step(self, instr: Instr, stack: list, stmts: list[Stmt]) -> None:
        m = instr.mnemonic
        ops = instr.operands

        # Constants.
        if m.startswith("iconst_"):
            stack.append(IntLit(-1 if m.endswith("m1") else int(m[-1])))
            return
        if m in ("bipush", "sipush"):
            stack.append(IntLit(ops[0]))
            return
        if m == "ldc":
            value = ops[0]
            if isinstance(value, int):
                stack.append(IntLit(value))
            elif isinstance(value, float):
                stack.append(FloatLit(value, FLOAT))
            else:
                raise DecompileError(
                    f"string constants are not supported in kernels "
                    f"(ldc {value!r})")
            return
        if m == "ldc2_w":
            value = ops[0]
            if isinstance(value, float):
                stack.append(FloatLit(value, DOUBLE))
            else:
                stack.append(IntLit(value, LONG))
            return
        if m.startswith("fconst_"):
            stack.append(FloatLit(float(m[-1]), FLOAT))
            return
        if m.startswith("dconst_"):
            stack.append(FloatLit(float(m[-1]), DOUBLE))
            return
        if m.startswith("lconst_"):
            stack.append(IntLit(int(m[-1]), LONG))
            return

        # Local loads/stores.
        if m in ("iload", "fload", "dload", "lload", "aload"):
            stack.append(self._load_slot(ops[0], m))
            return
        if m in ("istore", "fstore", "dstore", "lstore", "astore"):
            self._store_slot(ops[0], m, stack.pop(), stmts)
            return
        if m == "iinc":
            name = self._slot_var_name(ops[0])
            delta = ops[1]
            rhs = BinOp("+", Var(name), IntLit(delta)) if delta >= 0 \
                else BinOp("-", Var(name), IntLit(-delta))
            stmts.append(Assign(Var(name), rhs))
            return

        # Array access.
        if m in ("iaload", "faload", "daload", "laload", "caload",
                 "saload", "baload"):
            index = stack.pop()
            array = stack.pop()
            stack.append(ArrayRef(self._array_expr(array), index))
            return
        if m in ("iastore", "fastore", "dastore", "lastore", "castore",
                 "sastore", "bastore"):
            value = stack.pop()
            index = stack.pop()
            array = stack.pop()
            stmts.append(
                Assign(ArrayRef(self._array_expr(array), index), value))
            return
        if m == "arraylength":
            target = stack.pop()
            stack.append(IntLit(self._array_length(target)))
            return
        if m == "newarray":
            size = stack.pop()
            if not isinstance(size, IntLit):
                raise DecompileError(
                    "dynamic array allocation reached the lifter; the "
                    "frontend should have rejected it")
            from ..jvm.opcodes import ATYPE_NAMES
            elem = {"int": INT, "float": FLOAT, "double": DOUBLE,
                    "long": LONG, "char": CHAR, "short": SHORT,
                    "byte": CHAR, "boolean": INT}[ATYPE_NAMES[ops[0]]]
            stack.append(_NewArrayValue(ctype=elem, size=size.value))
            return
        if m == "anewarray":
            raise DecompileError(
                "arrays of references cannot be mapped to FPGA buffers")

        # Arithmetic.
        if m[1:] in ("add", "sub", "mul", "div", "rem") and \
                m[0] in "ilfd":
            rhs = stack.pop()
            lhs = stack.pop()
            op = {"add": "+", "sub": "-", "mul": "*", "div": "/",
                  "rem": "%"}[m[1:]]
            stack.append(BinOp(op, lhs, rhs))
            return
        if m in ("ineg", "fneg", "dneg", "lneg"):
            stack.append(UnOp("-", stack.pop()))
            return
        if m in ("ishl", "ishr", "iushr", "lshl", "lshr"):
            rhs = stack.pop()
            lhs = stack.pop()
            op = {"shl": "<<", "shr": ">>", "ushr": ">>"}[m.lstrip("il")]
            stack.append(BinOp(op, lhs, rhs))
            return
        if m in ("iand", "land", "ior", "lor", "ixor", "lxor"):
            rhs = stack.pop()
            lhs = stack.pop()
            op = {"and": "&", "or": "|", "xor": "^"}[m[1:]]
            if op in ("&", "|") and _is_boolish(lhs) and _is_boolish(rhs):
                op = "&&" if op == "&" else "||"
            if op == "^" and isinstance(rhs, IntLit) and rhs.value == 1 \
                    and _is_boolish(lhs):
                stack.append(negate(lhs))  # `b ^ 1` is boolean negation
                return
            stack.append(BinOp(op, lhs, rhs))
            return

        # Comparisons producing -1/0/1 (consumed by the following ifXX).
        if m in ("fcmpl", "fcmpg", "dcmpl", "dcmpg", "lcmp"):
            rhs = stack.pop()
            lhs = stack.pop()
            stack.append(_CmpResult(lhs, rhs))
            return

        # Conversions.
        if m in _CAST_TABLE:
            target = _CAST_TABLE[m]
            value = stack.pop()
            stack.append(Cast(target, value) if target is not None else value)
            return

        # Stack shuffles (only the tuple-construction dup is expected).
        if m == "dup":
            stack.append(stack[-1])
            return
        if m == "pop":
            top = stack.pop()
            if isinstance(top, Call):
                from ..hlsc.ast import ExprStmt
                stmts.append(ExprStmt(top))
            return
        if m == "pop2":
            stack.pop()
            return

        # Objects.
        if m == "new":
            stack.append(_TupleValue(class_name=ops[0]))
            return
        if m in ("invokevirtual", "invokespecial", "invokestatic"):
            self._lift_invoke(m, ops, stack, stmts)
            return
        if m == "getfield":
            owner, fname, descriptor = ops
            receiver = stack.pop()
            if isinstance(receiver, ThisParam):
                stack.append(
                    self._baked_field(receiver, fname, descriptor))
                return
            if isinstance(receiver, CompositeParam):
                leaf = receiver.leaves.get(fname)
                if leaf is None:
                    raise DecompileError(
                        f"record field {fname!r} has no flattened leaf")
                stack.append(Var(leaf.name)
                             if isinstance(leaf, ScalarParam) else leaf)
                return
            if isinstance(receiver, _TupleValue):
                fields = self.record_fields.get(receiver.class_name)
                if fields is None or receiver.elems is None:
                    raise DecompileError(
                        f"getfield {fname} on unconstructed object")
                stack.append(receiver.elems[fields.index(fname)])
                return
            raise DecompileError(
                f"getfield {fname} on unsupported receiver {receiver!r}")
        if m == "putfield":
            raise DecompileError(
                "kernels may not mutate object fields on the FPGA")

        raise DecompileError(
            f"cannot lift opcode {m} at offset {instr.offset}")

    # -- slots ----------------------------------------------------------

    def _load_slot(self, slot: int, mnemonic: str):
        if slot in self.slot_bindings:
            binding = self.slot_bindings[slot]
            if isinstance(binding, ScalarParam):
                return Var(binding.name)
            if isinstance(binding, BufferParam):
                return binding
            return binding  # CompositeParam / ThisParam
        if slot in self.slot_vars:
            return Var(self.slot_vars[slot][0])
        raise DecompileError(
            f"load from uninitialized local slot {slot}")

    def _slot_var_name(self, slot: int) -> str:
        if slot in self.slot_vars:
            return self.slot_vars[slot][0]
        if slot in self.slot_bindings:
            binding = self.slot_bindings[slot]
            if isinstance(binding, ScalarParam):
                return binding.name
        raise DecompileError(f"iinc on unknown slot {slot}")

    def _store_slot(self, slot: int, mnemonic: str, value,
                    stmts: list[Stmt]) -> None:
        if slot in self.slot_bindings:
            raise DecompileError(
                f"store to parameter slot {slot} is not supported")
        if slot not in self.slot_vars:
            # First assignment: emit a declaration.
            if isinstance(value, _NewArrayValue):
                name = self.names.fresh("arr")
                self.slot_vars[slot] = (name, value.ctype, (value.size,))
                stmts.append(VarDecl(name=name, ctype=value.ctype,
                                     dims=(value.size,)))
                return
            if isinstance(value, (_TupleValue, CompositeParam, ThisParam,
                                  BufferParam)):
                # Aliasing a composite: keep the binding, no C statement.
                self.slot_bindings[slot] = value
                return
            ctype = {"istore": INT, "fstore": FLOAT, "dstore": DOUBLE,
                     "lstore": LONG}.get(mnemonic, INT)
            name = self.names.fresh("v")
            self.slot_vars[slot] = (name, ctype, ())
            stmts.append(VarDecl(name=name, ctype=ctype, init=value))
            return
        name, ctype, dims = self.slot_vars[slot]
        if dims:
            raise DecompileError(f"reassignment of array variable {name}")
        stmts.append(Assign(Var(name), value))

    # -- arrays / composites ---------------------------------------------

    def _array_expr(self, value) -> Expr:
        if isinstance(value, BufferParam):
            return Var(value.name)
        if isinstance(value, Var):
            return value
        if isinstance(value, Expr):
            return value
        raise DecompileError(f"expected an array value, got {value!r}")

    def _array_length(self, value) -> int:
        if isinstance(value, BufferParam):
            if value.elem_count is None:
                raise DecompileError(
                    f"length of buffer {value.name} is not statically known")
            return value.elem_count
        if isinstance(value, Var):
            for name, ctype, dims in self.slot_vars.values():
                if name == value.name and dims:
                    return dims[0]
            for decl in self.const_tables:
                if decl.name == value.name:
                    return decl.dims[0]
        raise DecompileError(f"cannot determine length of {value!r}")

    # -- invokes ------------------------------------------------------------

    def _lift_invoke(self, m: str, ops: tuple, stack: list,
                     stmts: list[Stmt]) -> None:
        owner, name, descriptor = ops
        from ..jvm.descriptors import parse_method_descriptor
        parsed = parse_method_descriptor(descriptor)
        args = [stack.pop() for _ in parsed.params][::-1]
        receiver = stack.pop() if m != "invokestatic" else None

        # Tuple construction: new C; dup; args; invokespecial C.<init>.
        if m == "invokespecial" and name == "<init>":
            if isinstance(receiver, _TupleValue):
                receiver.elems = list(args)
                # The dup'ed reference already on the stack is the same
                # object, so nothing to push.
                return
            raise DecompileError(f"constructor call on {receiver!r}")

        # Tuple accessors: _1(), _2(), ...
        if m == "invokevirtual" and name.startswith("_") \
                and name[1:].isdigit():
            index = int(name[1:])
            if isinstance(receiver, CompositeParam):
                leaf = receiver.leaves.get(index)
                if leaf is None:
                    raise DecompileError(
                        f"tuple accessor _{index} has no flattened leaf")
                stack.append(Var(leaf.name)
                             if isinstance(leaf, ScalarParam) else leaf)
                return
            if isinstance(receiver, _TupleValue) and receiver.elems:
                stack.append(receiver.elems[index - 1])
                return
            raise DecompileError(
                f"tuple accessor on unsupported receiver {receiver!r}")

        # String methods on buffer params.
        if owner == "java/lang/String":
            if not isinstance(receiver, BufferParam):
                raise DecompileError(
                    "String operations are only supported on interface "
                    "buffers")
            if name == "charAt":
                stack.append(ArrayRef(Var(receiver.name), args[0]))
                return
            if name == "length":
                stack.append(IntLit(receiver.elem_count))
                return
            raise DecompileError(f"unsupported String method {name}")

        # Math intrinsics.
        if owner == "java/lang/Math":
            self._lift_math(name, descriptor, args, stack)
            return

        # Helper functions: same-class methods and module-level functions
        # become kernel-local C functions (S2FA inlines/extracts them).
        helper = self.helper_names.get((owner, name))
        if helper is not None:
            stack.append(Call(helper, [self._as_expr(a) for a in args]))
            if parsed.return_type == "V":
                from ..hlsc.ast import ExprStmt
                stmts.append(ExprStmt(stack.pop()))
            return

        raise DecompileError(
            f"unsupported invocation {owner}.{name}{descriptor} "
            f"(library calls are not supported, Section 3.3)")

    def _as_expr(self, value) -> Expr:
        if isinstance(value, BufferParam):
            return Var(value.name)
        if isinstance(value, Expr):
            return value
        raise DecompileError(
            f"cannot pass {value!r} to a helper function")

    def _baked_field(self, receiver: ThisParam, fname: str,
                     descriptor: str):
        if fname not in receiver.field_values:
            raise DecompileError(
                f"field {fname} of {receiver.class_name} has no baked "
                f"value; was the kernel instance constructed?")
        value = receiver.field_values[fname]
        if isinstance(value, JArray):
            for decl in self.const_tables:
                if decl.name == fname:
                    return Var(fname)
            elem = ctype_for_descriptor(value.elem)
            self.const_tables.append(VarDecl(
                name=fname, ctype=elem, dims=(len(value.values),),
                init_values=tuple(value.values),
                qualifiers=("static", "const")))
            return Var(fname)
        if isinstance(value, bool):
            return IntLit(int(value))
        if isinstance(value, int):
            return IntLit(value, ctype_for_descriptor(descriptor)
                          if descriptor in ("I", "J", "C", "S")
                          else INT)
        if isinstance(value, float):
            return FloatLit(value, FLOAT if descriptor == "F" else DOUBLE)
        raise DecompileError(
            f"field {fname} value {value!r} cannot be baked into C")

    def _lift_math(self, name: str, descriptor: str, args: list,
                   stack: list) -> None:
        if descriptor.startswith("(I") or descriptor.startswith("(II"):
            cname = _INT_MATH_TO_C.get(name)
        else:
            cname = _MATH_TO_C.get(name)
        if cname is None:
            raise DecompileError(f"unsupported Math.{name}")
        if descriptor.endswith(")F"):
            cname = {"fabs": "fabsf", "fmin": "fminf",
                     "fmax": "fmaxf"}.get(cname, cname)
        stack.append(Call(cname, list(args)))

    def _guess_ctype(self, expr: Expr) -> CType:
        if isinstance(expr, FloatLit):
            return expr.ctype
        if isinstance(expr, Cast):
            return expr.ctype
        if isinstance(expr, IntLit):
            return expr.ctype
        return INT


def _is_boolish(expr) -> bool:
    return isinstance(expr, BinOp) and expr.op in (
        "==", "!=", "<", "<=", ">", ">=", "&&", "||") \
        or isinstance(expr, UnOp) and expr.op == "!"


_CAST_TABLE: dict[str, Optional[CType]] = {
    "i2f": FLOAT, "i2d": DOUBLE, "i2l": LONG,
    "f2i": INT, "f2d": DOUBLE, "f2l": LONG,
    "d2i": INT, "d2f": FLOAT, "d2l": LONG,
    "l2i": INT, "l2f": FLOAT, "l2d": DOUBLE,
    "i2c": CHAR, "i2s": SHORT, "i2b": CHAR,
}
