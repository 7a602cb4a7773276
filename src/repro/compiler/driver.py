"""The S2FA compiler driver: Scala kernel source -> HLS-C kernel.

Orchestrates the whole frontend-to-C pipeline of Fig. 1:

1. compile the mini-Scala source to JVM bytecode (``repro.scala``),
2. run the kernel class's constructor once on the stack-walking JVM
   interpreter to *bake* constant field values (Blaze broadcast data
   becomes on-chip ROM),
3. flatten the ``Accelerator[In, Out]`` types into interface buffers,
4. lift ``call`` (and any helper methods it invokes) from bytecode to C,
5. insert the map/reduce template to form the batch ``kernel`` function,
6. label all loops so the design space can refer to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import DecompileError, UnsupportedConstructError
from ..hlsc.ast import CFunction, CKernel, Param
from ..hlsc.analysis import label_kernel
from ..jvm.classfile import ClassRegistry, JClass, JMethod
from ..jvm.descriptors import slot_width
from ..jvm.interpreter import Interpreter, JObject
from ..jvm.opcodes import INVOKE_OPS
from ..jvm.stdlib import is_tuple_class
from ..obs.span import NULL_TRACER
from ..scala import compile_program, sast
from ..scala import types as st
from ..utils import NameAllocator
from .interface import InterfaceLayout, LayoutConfig, build_layout
from .lift import (
    BufferParam,
    CompositeParam,
    Lifter,
    ScalarParam,
    ThisParam,
    ctype_for_descriptor,
)
from .passes import recover_for_loops, remove_decl, rename_var
from .templates import make_call_function, map_template, reduce_template

#: Default number of tasks per accelerator invocation (the Blaze batch).
DEFAULT_BATCH_SIZE = 1024


@dataclass
class CompiledKernel:
    """Everything downstream stages need about one compiled kernel."""

    name: str                  # kernel class name
    kernel: CKernel            # the generated HLS-C translation unit
    layout: InterfaceLayout    # flattened interface
    program: sast.Program      # typed Scala AST
    classes: list[JClass]      # emitted JVM classes
    registry: ClassRegistry    # loaded class registry (for the JVM baseline)
    instance: JObject          # baked kernel instance
    pattern: str               # "map" | "reduce"
    batch_size: int
    loop_labels: list[str] = field(default_factory=list)

    @property
    def accel_id(self) -> str:
        """The Blaze accelerator id (the kernel class's ``id`` field)."""
        value = self.instance.fields.get("id")
        return value if isinstance(value, str) else self.name


def _find_kernel_class(program: sast.Program,
                       name: Optional[str]) -> sast.ClassDef:
    candidates = [c for c in program.classes
                  if name is None or c.name == name]
    if name is None:
        candidates = [c for c in candidates if c.parent == "Accelerator"]
    if not candidates:
        raise UnsupportedConstructError(
            "no kernel class found (expected `class X extends "
            "Accelerator[In, Out]`)")
    if len(candidates) > 1:
        names = ", ".join(c.name for c in candidates)
        raise UnsupportedConstructError(
            f"multiple kernel classes found ({names}); pass kernel_class=")
    return candidates[0]


def _io_types(cls: sast.ClassDef) -> tuple[st.Type, st.Type]:
    if cls.parent == "Accelerator" and len(cls.type_args) == 2:
        return cls.type_args[0], cls.type_args[1]
    call = cls.method("call")
    if len(call.params) != 1:
        raise UnsupportedConstructError(
            "kernel call() must take exactly one input")
    return call.params[0].declared, call.ret


def _leaf_binding(leaf) -> object:
    if leaf.is_scalar:
        return ScalarParam(leaf.name, leaf.ctype)
    return BufferParam(leaf.name, leaf.ctype, leaf.elem_count)


def _input_bindings(input_type: st.Type, layout: InterfaceLayout) -> object:
    """Binding for the single ``in`` parameter of ``call``.

    Mirrors the recursive flattening of :func:`build_layout`: composite
    types become nested :class:`CompositeParam` trees whose leaves consume
    ``layout.inputs`` in order, so ``in._2._1``-style accessor chains on
    nested tuples resolve to the right flattened buffer.
    """
    leaf_iter = iter(layout.inputs)

    def build(tpe: st.Type) -> object:
        if isinstance(tpe, st.TupleType):
            return CompositeParam(leaves={
                i: build(elem)
                for i, elem in enumerate(tpe.elems, start=1)
            })
        if isinstance(tpe, st.ClassType) and tpe.name in layout.records:
            return CompositeParam(leaves={
                field_name: build(field_type)
                for field_name, field_type in layout.records[tpe.name]
            })
        return _leaf_binding(next(leaf_iter))

    return build(input_type)


class KernelCompiler:
    """Compiles one kernel class end to end."""

    def __init__(self, source: str, *,
                 kernel_class: Optional[str] = None,
                 layout_config: Optional[LayoutConfig] = None,
                 pattern: str = "map",
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 tracer=NULL_TRACER):
        if pattern not in ("map", "reduce", "filter"):
            raise UnsupportedConstructError(
                f"unsupported RDD transformation pattern {pattern!r}")
        self.source = source
        self.kernel_class = kernel_class
        self.layout_config = layout_config or LayoutConfig()
        self.pattern = pattern
        self.batch_size = batch_size
        self.tracer = tracer

    # ------------------------------------------------------------------

    def compile(self) -> CompiledKernel:
        tracer = self.tracer
        with tracer.span("compile.kernel", pattern=self.pattern,
                         batch_size=self.batch_size) as root:
            compiled = self._compile_passes(root)
            root.set(class_name=compiled.name,
                     loops=len(compiled.loop_labels))
            tracer.metrics.incr("compile.kernels")
        return compiled

    def _compile_passes(self, root) -> CompiledKernel:
        tracer = self.tracer
        with tracer.span("compile.frontend"):
            program, classes = compile_program(self.source)
            registry = ClassRegistry()
            for jclass in classes:
                registry.define(jclass)

        cls = _find_kernel_class(program, self.kernel_class)
        jclass = registry.lookup(cls.name)
        with tracer.span("compile.bake", class_name=cls.name):
            instance = self._bake_instance(registry, cls.name)
        input_type, output_type = _io_types(cls)
        records = {
            c.name: [(p.name, p.declared) for p in c.record_fields]
            for c in program.classes if c.is_record
        }
        with tracer.span("compile.interface") as span:
            layout = build_layout(input_type, output_type,
                                  self.layout_config, records=records)
            span.set(leaves=len(layout.leaves),
                     bytes_in=layout.bytes_in_per_task,
                     bytes_out=layout.bytes_out_per_task)
        self._record_field_names = {
            name: [field_name for field_name, _ in fields]
            for name, fields in records.items()
        }

        call_method = jclass.method("call")
        with tracer.span("compile.lift_helpers") as span:
            helpers, helper_names = self._lift_helpers(
                registry, jclass, call_method, instance)
            span.set(helpers=len(helpers))

        names = NameAllocator()
        for leaf in layout.leaves:
            names.reserve(leaf.name)

        with tracer.span("compile.lift_call"):
            if self.pattern in ("map", "filter"):
                # A filter kernel is a map producing a 0/1 keep-flag per
                # task (the host-side Blaze runtime drops the filtered
                # elements).
                if self.pattern == "filter" and output_type != st.BOOLEAN:
                    raise UnsupportedConstructError(
                        f"filter kernels must return Boolean, "
                        f"not {output_type}")
                call_fn = self._lift_call_map(
                    call_method, cls, instance, layout, helper_names,
                    names)
                top = map_template(layout)
            else:
                call_fn = self._lift_call_reduce(
                    call_method, cls, instance, layout, helper_names,
                    names)
                top = reduce_template(layout)

        functions = helpers + [call_fn, top]
        kernel = CKernel(
            functions=functions,
            top=top.name,
            metadata={
                "pattern": self.pattern,
                "batch_size": self.batch_size,
                "class_name": cls.name,
                "call_name": call_fn.name,
                "bytes_in_per_task": layout.bytes_in_per_task,
                "bytes_out_per_task": layout.bytes_out_per_task,
            },
        )
        with tracer.span("compile.label"):
            labels = label_kernel(kernel)
        return CompiledKernel(
            name=cls.name, kernel=kernel, layout=layout, program=program,
            classes=classes, registry=registry, instance=instance,
            pattern=self.pattern, batch_size=self.batch_size,
            loop_labels=labels)

    # ------------------------------------------------------------------

    def _bake_instance(self, registry: ClassRegistry,
                       class_name: str) -> JObject:
        # ``<init>`` runs exactly once: walking its bytecode costs less
        # than lowering it to TAC first (the table initialisers are long).
        interp = Interpreter(registry)
        instance = interp.new_instance(class_name)
        interp.invoke(class_name, "<init>", [instance])
        return instance

    # ------------------------------------------------------------------

    def _lift_helpers(self, registry: ClassRegistry, jclass: JClass,
                      call_method: JMethod, instance: JObject
                      ) -> tuple[list[CFunction], dict]:
        """Lift every same-class / module method ``call`` reaches."""
        helper_names: dict[tuple[str, str], str] = {}
        order: list[tuple[str, str]] = []

        def discover(method: JMethod, owner: str) -> None:
            for instr in method.code:
                if instr.mnemonic not in INVOKE_OPS:
                    continue
                target_owner, target_name, _ = instr.operands
                if target_owner in ("java/lang/Math", "java/lang/String",
                                    "java/lang/Object"):
                    continue
                if is_tuple_class(target_owner):
                    continue
                if target_name == "<init>":
                    # Tuple/record construction is handled by the lifter.
                    continue
                key = (target_owner, target_name)
                if key in helper_names:
                    continue
                try:
                    target_class, target_method = registry.resolve_method(
                        target_owner, target_name, instr.operands[2])
                except Exception as exc:
                    raise DecompileError(
                        f"cannot resolve helper {target_owner}."
                        f"{target_name}: {exc}") from exc
                helper_names[key] = target_name
                order.append(key)
                discover(target_method, target_class.name)

        discover(call_method, jclass.name)

        helpers: list[CFunction] = []
        for owner, name in order:
            _, method = registry.resolve_method(owner, name, None)
            helpers.append(self._lift_helper(method, owner, instance,
                                             helper_names))
        return helpers, helper_names

    def _lift_helper(self, method: JMethod, owner: str, instance: JObject,
                     helper_names: dict) -> CFunction:
        parsed = method.parsed_descriptor
        bindings: dict[int, object] = {}
        params: list[Param] = []
        slot = 0
        if not method.is_static:
            bindings[0] = ThisParam(owner, instance.fields)
            slot = 1
        for i, descriptor in enumerate(parsed.params):
            pname = f"a{i}"
            if descriptor.startswith("["):
                elem = ctype_for_descriptor(descriptor[1:])
                bindings[slot] = BufferParam(pname, elem, None)
                params.append(Param(name=pname, ctype=elem, is_pointer=True))
            else:
                ctype = ctype_for_descriptor(descriptor)
                bindings[slot] = ScalarParam(pname, ctype)
                params.append(Param(name=pname, ctype=ctype))
            slot += slot_width(descriptor)

        lifter = Lifter(method, slot_bindings=bindings,
                        helper_names=helper_names, is_call=False)
        result = lifter.lift()
        if parsed.return_type == "V":
            return_type = ctype_for_descriptor("I")  # placeholder, unused
            raise DecompileError(
                f"void helper methods are not supported ({method.name})")
        return_type = ctype_for_descriptor(parsed.return_type) \
            if not parsed.return_type.startswith("[") else None
        if return_type is None:
            raise DecompileError(
                f"helper {method.name} may not return an array")
        func = CFunction(name=method.name, return_type=return_type,
                         params=params, body=result.body)
        recover_for_loops(func)
        return func

    # ------------------------------------------------------------------

    def _call_bindings(self, call_method: JMethod, cls: sast.ClassDef,
                       instance: JObject, layout: InterfaceLayout
                       ) -> dict[int, object]:
        input_type, _ = _io_types(cls)
        bindings: dict[int, object] = {
            0: ThisParam(cls.name, instance.fields),
            1: _input_bindings(input_type, layout),
        }
        return bindings

    def _lift_call_map(self, call_method: JMethod, cls: sast.ClassDef,
                       instance: JObject, layout: InterfaceLayout,
                       helper_names: dict, names: NameAllocator) -> CFunction:
        lifter = Lifter(
            call_method,
            slot_bindings=self._call_bindings(call_method, cls, instance,
                                              layout),
            out_leaves=layout.outputs,
            helper_names=helper_names,
            is_call=True,
            names=names,
            record_fields=getattr(self, "_record_field_names", {}))
        result = lifter.lift()
        body = result.body
        for action in result.output_actions:
            if action[0] == "rename":
                _, old, new = action
                remove_decl(body, old)
                rename_var(body, old, new)
        func = make_call_function("call", layout, body)
        recover_for_loops(func)
        return func

    def _lift_call_reduce(self, call_method: JMethod, cls: sast.ClassDef,
                          instance: JObject, layout: InterfaceLayout,
                          helper_names: dict,
                          names: NameAllocator) -> CFunction:
        parsed = call_method.parsed_descriptor
        if len(parsed.params) != 2:
            raise UnsupportedConstructError(
                "reduce kernels must define call(a: T, b: T): T")
        bindings: dict[int, object] = {0: ThisParam(cls.name,
                                                    instance.fields)}
        params: list[Param] = []
        slot = 1
        for pname, descriptor in zip(("a", "b"), parsed.params):
            ctype = ctype_for_descriptor(descriptor)
            bindings[slot] = ScalarParam(pname, ctype)
            params.append(Param(name=pname, ctype=ctype))
            slot += slot_width(descriptor)
        lifter = Lifter(call_method, slot_bindings=bindings,
                        helper_names=helper_names, is_call=False,
                        names=names)
        result = lifter.lift()
        func = CFunction(
            name="call",
            return_type=ctype_for_descriptor(parsed.return_type),
            params=params, body=result.body)
        recover_for_loops(func)
        return func


def compile_kernel(source: str, *, kernel_class: Optional[str] = None,
                   layout_config: Optional[LayoutConfig] = None,
                   pattern: str = "map",
                   batch_size: int = DEFAULT_BATCH_SIZE,
                   tracer=NULL_TRACER) -> CompiledKernel:
    """One-call S2FA frontend: Scala kernel source to an HLS-C kernel.

    ``tracer`` records one ``compile.kernel`` span with per-pass child
    spans (frontend, bake, interface, lift, label).
    """
    return KernelCompiler(
        source, kernel_class=kernel_class, layout_config=layout_config,
        pattern=pattern, batch_size=batch_size, tracer=tracer).compile()
