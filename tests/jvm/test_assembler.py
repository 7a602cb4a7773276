"""Tests for the symbolic assembler."""

import pytest

from repro.errors import BytecodeError
from repro.jvm.assembler import CodeBuilder, assemble, instr_size, stack_delta
from repro.jvm.classfile import Instr


def _simple_return_method():
    b = CodeBuilder()
    b.emit("iload", 1)
    b.emit("ireturn")
    return assemble("identity", "(I)I", b)


class TestAssembly:
    def test_offsets_assigned(self):
        method = _simple_return_method()
        assert [i.offset for i in method.code] == [0, 2]

    def test_label_resolution(self):
        b = CodeBuilder()
        b.emit("iload", 1)
        b.emit("ifge", "pos")
        b.emit("iconst_0")
        b.emit("ireturn")
        b.label("pos")
        b.emit("iconst_1")
        b.emit("ireturn")
        method = assemble("sign", "(I)I", b)
        branch = method.code[1]
        assert branch.mnemonic == "ifge"
        # Target must be the offset of iconst_1.
        assert branch.operands[0] == method.code[4].offset

    def test_undefined_label_raises(self):
        b = CodeBuilder()
        b.emit("goto", "nowhere")
        with pytest.raises(BytecodeError, match="undefined label"):
            assemble("bad", "()V", b)

    def test_duplicate_label_raises(self):
        b = CodeBuilder()
        b.label("x")
        b.label("x")
        b.emit("return")
        with pytest.raises(BytecodeError, match="duplicate label"):
            assemble("bad", "()V", b)

    def test_missing_return_raises(self):
        b = CodeBuilder()
        b.emit("iconst_0")
        b.emit("pop")
        with pytest.raises(BytecodeError, match="return"):
            assemble("bad", "()V", b)

    def test_unknown_mnemonic_rejected_eagerly(self):
        b = CodeBuilder()
        with pytest.raises(BytecodeError, match="unknown opcode"):
            b.emit("frobnicate")


class TestMaxStack:
    def test_simple(self):
        method = _simple_return_method()
        assert method.max_stack == 1

    def test_deeper_expression(self):
        b = CodeBuilder()
        b.emit("iload", 0)
        b.emit("iload", 0)
        b.emit("iload", 0)
        b.emit("imul")
        b.emit("iadd")
        b.emit("ireturn")
        method = assemble("f", "(I)I", b, is_static=True)
        assert method.max_stack == 3

    def test_wide_values_count_two_slots(self):
        b = CodeBuilder()
        b.emit("dload", 0)
        b.emit("dload", 2)
        b.emit("dadd")
        b.emit("dreturn")
        method = assemble("f", "(DD)D", b, is_static=True)
        assert method.max_stack == 4

    def test_underflow_detected(self):
        b = CodeBuilder()
        b.emit("iadd")  # nothing on stack
        b.emit("ireturn")
        with pytest.raises(BytecodeError, match="underflow"):
            assemble("bad", "()I", b)

    def test_inconsistent_depth_detected(self):
        b = CodeBuilder()
        b.emit("iload", 0)
        b.emit("ifeq", "merge")
        b.emit("iconst_0")       # one path pushes...
        b.label("merge")          # ...the other does not
        b.emit("return")
        with pytest.raises(BytecodeError, match="inconsistent"):
            assemble("bad", "(I)V", b, is_static=True)


class TestMaxLocals:
    def test_includes_params_and_this(self):
        method = _simple_return_method()
        assert method.max_locals >= 2  # this + int param

    def test_wide_local_store(self):
        b = CodeBuilder()
        b.emit("dconst_1")
        b.emit("dstore", 5)
        b.emit("return")
        method = assemble("f", "()V", b, is_static=True)
        assert method.max_locals >= 7  # slots 5 and 6


class TestStackDelta:
    def test_invoke_delta_from_descriptor(self):
        instr = Instr("invokevirtual", ("C", "m", "(IF)D"))
        # pops receiver + 2 args, pushes a double (2 slots): -3 + 2
        assert stack_delta(instr) == -1

    def test_static_invoke(self):
        instr = Instr("invokestatic", ("C", "m", "(D)D"))
        assert stack_delta(instr) == 0

    def test_field_deltas(self):
        assert stack_delta(Instr("getfield", ("C", "f", "D"))) == 1
        assert stack_delta(Instr("putfield", ("C", "f", "I"))) == -2


class TestConstHelpers:
    def test_small_int_encodings(self):
        b = CodeBuilder()
        b.load_const_int(3)
        b.load_const_int(100)
        b.load_const_int(30000)
        b.load_const_int(1 << 20)
        mnemonics = [mnemonic for mnemonic, _ in b.items]
        assert mnemonics == ["iconst_3", "bipush", "sipush", "ldc"]

    def test_instr_size(self):
        assert instr_size("iadd") == 1
        assert instr_size("iload") == 2
        assert instr_size("goto") == 3
        assert instr_size("invokevirtual") == 3
