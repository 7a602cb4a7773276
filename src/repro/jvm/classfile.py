"""In-memory model of JVM classes, fields, methods, and instructions.

This is the symbolic layer every other JVM component works on: the
assembler lowers label-based code into it, the binary codec serializes it
to real ``.class`` bytes, the interpreter executes it, and the
bytecode-to-C compiler lifts it.

Instruction operands stay *symbolic* (class/field/method names rather than
constant-pool indices); the codec materializes a constant pool only at
(de)serialization time, exactly like javac/ASM do internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import BytecodeError
from .descriptors import (
    MethodDescriptor,
    parse_method_descriptor,
    validate_field_descriptor,
)
from .opcodes import OpSpec, spec

#: Access flag bits (subset).
ACC_PUBLIC = 0x0001
ACC_STATIC = 0x0008
ACC_FINAL = 0x0010
ACC_SUPER = 0x0020


@dataclass
class Instr:
    """One symbolic instruction.

    ``offset`` is the bytecode offset within the method, assigned by the
    assembler; branch operands are absolute target offsets once assembled.
    """

    mnemonic: str
    operands: tuple = ()
    offset: int = -1

    @property
    def spec(self) -> OpSpec:
        return spec(self.mnemonic)

    def __repr__(self) -> str:
        ops = " " + ", ".join(map(repr, self.operands)) if self.operands else ""
        return f"<{self.offset}: {self.mnemonic}{ops}>"


@dataclass
class JField:
    """A class field."""

    name: str
    descriptor: str
    access_flags: int = ACC_PUBLIC
    #: constant initial value for final fields (used for baked-in tables)
    constant_value: Optional[object] = None

    def __post_init__(self) -> None:
        validate_field_descriptor(self.descriptor)


@dataclass
class JMethod:
    """A method with its code attribute."""

    name: str
    descriptor: str
    code: list[Instr] = field(default_factory=list)
    max_stack: int = 0
    max_locals: int = 0
    access_flags: int = ACC_PUBLIC

    @property
    def parsed_descriptor(self) -> MethodDescriptor:
        return parse_method_descriptor(self.descriptor)

    @property
    def is_static(self) -> bool:
        return bool(self.access_flags & ACC_STATIC)

    @property
    def key(self) -> tuple[str, str]:
        return (self.name, self.descriptor)


@dataclass
class JClass:
    """A class definition."""

    name: str
    super_name: str = "java/lang/Object"
    fields: list[JField] = field(default_factory=list)
    methods: list[JMethod] = field(default_factory=list)
    access_flags: int = ACC_PUBLIC | ACC_SUPER
    major_version: int = 51  # JDK 7, matching the paper's environment
    minor_version: int = 0

    def method(self, name: str, descriptor: Optional[str] = None) -> JMethod:
        """Find a method by name (and descriptor, when overloaded)."""
        matches = [m for m in self.methods if m.name == name
                   and (descriptor is None or m.descriptor == descriptor)]
        if not matches:
            raise BytecodeError(
                f"no method {name}{descriptor or ''} in class {self.name}")
        if len(matches) > 1:
            raise BytecodeError(
                f"ambiguous method {name} in class {self.name}; "
                f"pass a descriptor")
        return matches[0]

    def has_method(self, name: str, descriptor: Optional[str] = None) -> bool:
        return any(
            m.name == name
            and (descriptor is None or m.descriptor == descriptor)
            for m in self.methods
        )


class ClassRegistry:
    """Loaded classes by name — the interpreter's "class loader"."""

    def __init__(self) -> None:
        self._classes: dict[str, JClass] = {}

    def define(self, jclass: JClass) -> JClass:
        if jclass.name in self._classes:
            raise BytecodeError(f"class {jclass.name} already defined")
        self._classes[jclass.name] = jclass
        return jclass

    def lookup(self, name: str) -> JClass:
        try:
            return self._classes[name]
        except KeyError:
            raise BytecodeError(f"class {name} not loaded") from None

    def resolve_method(self, class_name: str, method_name: str,
                       descriptor: str) -> tuple[JClass, JMethod]:
        """Resolve a method reference, walking up the superclass chain."""
        name = class_name
        while name and name != "java/lang/Object":
            jclass = self._classes.get(name)
            if jclass is None:
                break
            if jclass.has_method(method_name, descriptor):
                return jclass, jclass.method(method_name, descriptor)
            name = jclass.super_name
        raise BytecodeError(
            f"cannot resolve {class_name}.{method_name}{descriptor}")

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def classes(self) -> list[JClass]:
        return list(self._classes.values())
