"""Symbolic JVM assembler: label-based code -> resolved :class:`JMethod`.

The Scala frontend emits code through :class:`CodeBuilder` using symbolic
labels for branch targets.  ``assemble`` resolves labels to byte offsets,
verifies stack consistency along all paths, and computes ``max_stack`` /
``max_locals`` the way a real assembler (ASM, Jasmin) would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import BytecodeError
from .classfile import ACC_PUBLIC, ACC_STATIC, Instr, JMethod
from .descriptors import parse_method_descriptor, slot_width
from .opcodes import (
    BRANCH_OPS,
    BY_MNEMONIC,
    RETURN_OPS,
    TERMINATOR_OPS,
    OpSpec,
    spec,
)

#: Encoded size in bytes for each operand kind.
_KIND_SIZES = {
    "none": 1,
    "local": 2,
    "byte": 2,
    "short": 3,
    "branch": 3,
    "iinc": 3,
    "atype": 2,
    "ldc": 2,
    "ldc2": 3,
    "field": 3,
    "method": 3,
    "class": 3,
}


def instr_size(mnemonic: str) -> int:
    """Encoded byte size of an instruction."""
    return _KIND_SIZES[spec(mnemonic).kind]


@dataclass
class CodeBuilder:
    """Accumulates symbolic instructions and label definitions.

    ``items`` holds ``(mnemonic, operands)`` per instruction and
    ``(None, label)`` per label definition, in program order.
    """

    items: list[tuple] = field(default_factory=list)
    _label_counter: int = 0

    def emit(self, mnemonic: str, *operands) -> None:
        """Append one instruction; validates the mnemonic eagerly."""
        spec(mnemonic)  # raises on unknown opcodes
        self.items.append((mnemonic, operands))

    def label(self, name: str) -> None:
        """Define a label at the current position."""
        self.items.append((None, name))

    def new_label(self, hint: str = "lbl") -> str:
        """Return a fresh label name (not yet placed)."""
        self._label_counter += 1
        return f"{hint}_{self._label_counter}"

    def load_const_int(self, value: int) -> None:
        """Emit the smallest encoding of an int constant push."""
        if -1 <= value <= 5:
            self.emit("iconst_m1" if value == -1 else f"iconst_{value}")
        elif -128 <= value <= 127:
            self.emit("bipush", value)
        elif -32768 <= value <= 32767:
            self.emit("sipush", value)
        else:
            self.emit("ldc", value)

    def load_const_float(self, value: float) -> None:
        if value in (0.0, 1.0, 2.0) and str(value) != "-0.0":
            self.emit(f"fconst_{int(value)}")
        else:
            self.emit("ldc", float(value))

    def load_const_double(self, value: float) -> None:
        if value in (0.0, 1.0) and str(value) != "-0.0":
            self.emit(f"dconst_{int(value)}")
        else:
            self.emit("ldc2_w", float(value))

    def load_const_long(self, value: int) -> None:
        if value in (0, 1):
            self.emit(f"lconst_{value}")
        else:
            self.emit("ldc2_w", value)


def _invoke_stack_delta(mnemonic: str, descriptor: str) -> int:
    parsed = parse_method_descriptor(descriptor)
    delta = parsed.return_slots - parsed.param_slots
    if mnemonic in ("invokevirtual", "invokespecial"):
        delta -= 1  # the receiver
    return delta


def _field_stack_delta(mnemonic: str, descriptor: str) -> int:
    width = slot_width(descriptor)
    return {
        "getstatic": width,
        "putstatic": -width,
        "getfield": width - 1,
        "putfield": -width - 1,
    }[mnemonic]


def stack_delta(instr: Instr) -> int:
    """Net operand-stack effect of one resolved instruction."""
    return _stack_delta(instr, instr.spec)


def _stack_delta(instr: Instr, sp: OpSpec) -> int:
    if sp.stack_delta is not None:
        return sp.stack_delta
    if sp.kind == "method":
        return _invoke_stack_delta(instr.mnemonic, instr.operands[2])
    if sp.kind == "field":
        return _field_stack_delta(instr.mnemonic, instr.operands[2])
    raise BytecodeError(f"cannot compute stack delta of {instr.mnemonic}")


def _locals_touched(instr: Instr, kind: str) -> int:
    """Highest local slot index (+width) referenced, or 0."""
    if kind == "local":
        width = 2 if instr.mnemonic[0] in ("l", "d") else 1
        return int(instr.operands[0]) + width
    if kind == "iinc":
        return int(instr.operands[0]) + 1
    return 0


def _compute_max_stack(code: list[Instr], specs: list[OpSpec]) -> int:
    """Abstract-interpret stack depth over all paths; verify consistency.

    Paths are walked depth-first, fall-through before branch target, so
    the first inconsistency found is the same on every run.
    """
    if not code:
        return 0
    index_by_offset = {instr.offset: i for i, instr in enumerate(code)}
    end = len(code)
    depth_at: list[int | None] = [None] * end
    worklist = [(0, 0)]
    max_depth = 0
    while worklist:
        index, depth = worklist.pop()
        while True:         # one straight-line run
            if index >= end:
                raise BytecodeError(
                    "control flow falls off the end of the method")
            known = depth_at[index]
            if known is not None:
                if known != depth:
                    raise BytecodeError(
                        f"inconsistent stack depth at offset "
                        f"{code[index].offset}: {known} vs {depth}")
                break
            depth_at[index] = depth
            instr = code[index]
            depth += _stack_delta(instr, specs[index])
            if depth < 0:
                raise BytecodeError(
                    f"stack underflow at offset {instr.offset} "
                    f"({instr.mnemonic})")
            if depth > max_depth:
                max_depth = depth
            mnemonic = instr.mnemonic
            if mnemonic in RETURN_OPS:
                break
            if mnemonic in BRANCH_OPS:
                target = instr.operands[0]
                if target not in index_by_offset:
                    raise BytecodeError(f"branch to bad offset {target}")
                worklist.append((index_by_offset[target], depth))
                if mnemonic == "goto":
                    break
            index += 1
    return max_depth


def assemble(name: str, descriptor: str, builder: CodeBuilder,
             *, is_static: bool = False, extra_locals: int = 0) -> JMethod:
    """Resolve labels and produce a verified :class:`JMethod`.

    ``extra_locals`` reserves slots beyond those implied by parameters and
    local-variable instructions (defensive headroom for temporaries).
    """
    # First pass: assign offsets, looking each opcode up once
    # (``CodeBuilder.emit`` has validated the mnemonic).
    offset = 0
    label_offsets: dict[str, int] = {}
    code: list[Instr] = []
    specs: list[OpSpec] = []
    for mnemonic, operands in builder.items:
        if mnemonic is None:
            if operands in label_offsets:
                raise BytecodeError(f"duplicate label {operands!r}")
            label_offsets[operands] = offset
        else:
            sp = BY_MNEMONIC[mnemonic]
            code.append(Instr(mnemonic, operands, offset))
            specs.append(sp)
            offset += _KIND_SIZES[sp.kind]

    # Second pass: resolve branch labels to absolute offsets.
    for instr, sp in zip(code, specs):
        if sp.kind == "branch":
            (target,) = instr.operands
            if isinstance(target, str):
                if target not in label_offsets:
                    raise BytecodeError(f"undefined label {target!r}")
                instr.operands = (label_offsets[target],)

    if not code or code[-1].mnemonic not in TERMINATOR_OPS:
        raise BytecodeError(
            f"method {name} does not end with a return or goto")

    parsed = parse_method_descriptor(descriptor)
    param_slots = parsed.param_slots + (0 if is_static else 1)
    max_locals = max(
        [param_slots + extra_locals]
        + [_locals_touched(instr, sp.kind) for instr, sp in zip(code, specs)]
    )
    method = JMethod(
        name=name,
        descriptor=descriptor,
        code=code,
        max_stack=_compute_max_stack(code, specs),
        max_locals=max_locals,
        access_flags=ACC_PUBLIC | (ACC_STATIC if is_static else 0),
    )
    return method
