"""Per-kernel analysis: the half of estimation that ignores the design point.

Scoring a design point needs two kinds of facts.  What the *kernel* is —
its loop tree with helper loops inlined, each loop's straight-line
latency, recurrence, per-lane resources and interface traffic, the local
buffers and the interface ports — follows from the C AST alone.  What the
*point* does to it is arithmetic over those facts.  :func:`analyze`
derives the first kind once per kernel; the estimator
(:mod:`repro.hls.estimator`), the surrogate's feature extractor
(:mod:`repro.cost.features`) and the design-space builder
(:mod:`repro.dse.space`) all read the same :class:`KernelAnalysis` and
never walk the AST themselves.

Ownership: the analysis is stored on the kernel it describes
(:attr:`repro.hlsc.ast.CKernel.analysis`), so it is freed with the kernel
and a ``clone()``, ``deepcopy`` or pickle starts without one.  A kernel is
therefore **frozen once analysed**: transform a ``clone()`` (as every
Merlin transform does), never the analysed object.

The records hold ints, strings and tuples only — no AST nodes and no
parent links — so an analysis costs a few kilobytes per kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..hlsc.analysis import (
    LoopInfo,
    flatten_loop_tree,
    kernel_loop_tree,
    local_buffers,
)
from ..hlsc.ast import CKernel
from ..obs.span import NULL_TRACER
from .optable import DEFAULT_ILP, OP_COSTS

#: Bits in one BRAM-18k block.
BRAM_BLOCK_BITS = 18432

#: A kernel is "simple" (can escape the routing wall) when its distinct
#: compute-op categories are at most this many.
_SIMPLE_OP_KINDS = 2

_FLOAT_OPS = ("fadd", "fmul", "fdiv", "fspec")
_MEM_OPS = ("load", "store")
_DIV_OPS = ("idiv", "fdiv", "fspec")


@dataclass(frozen=True, slots=True)
class LoopFacts:
    """What estimation needs to know about one loop, point-independent."""

    label: str
    trip_count: Optional[int]
    children: tuple["LoopFacts", ...]
    is_task_loop: bool
    #: tree-reducible accumulation (Merlin's tree reduction applies)
    is_reduction: bool
    #: carried array or scalar chain: parallel lanes cannot help
    dependence_bound: bool
    #: the body itself (children excluded) holds an exp/log/sqrt core
    has_fspec: bool
    #: cycles of one iteration's straight-line ops (children excluded)
    body_latency: int
    #: cycles of the loop-carried chain, 0 when there is none
    recurrence_latency: int
    #: resources of one parallel lane of the body
    lut: int
    ff: int
    dsp: int
    #: interface buffers the nest touches, and the bytes one iteration of
    #: the body moves through them
    ports: tuple[str, ...]
    interface_bytes: int
    #: local (BRAM) buffers the nest touches, by declaration name
    local_arrays: tuple[str, ...]
    #: distinct arrays the nest touches; ops on the recurrence
    array_count: int
    recurrence_ops: int

    @property
    def has_carried_dep(self) -> bool:
        return self.is_reduction or self.dependence_bound

    def self_and_descendants(self) -> list["LoopFacts"]:
        """Preorder, like :meth:`LoopInfo.self_and_descendants`."""
        result = [self]
        for child in self.children:
            result.extend(child.self_and_descendants())
        return result


@dataclass(frozen=True)
class LocalBuffer:
    """One constant-size local array: BRAM banks before partitioning."""

    name: str
    banks: int
    element_count: int


@dataclass(frozen=True)
class KernelAnalysis:
    """Every point-independent fact of one kernel (see module docstring)."""

    roots: tuple[LoopFacts, ...]
    #: ``roots`` flattened in preorder
    loops: tuple[LoopFacts, ...]
    #: labels the task-loop configuration and top-level II are read from
    task_labels: tuple[str, ...]
    #: interface (pointer) parameters of the top function, in order
    ports: tuple[str, ...]
    #: per-task bits each sized interface buffer stages on chip
    staging_bits: tuple[int, ...]
    local_buffers: tuple[LocalBuffer, ...]
    bytes_per_task: int
    batch_size: int
    class_name: str
    #: few enough compute-op kinds to escape the routing wall
    is_simple: bool
    #: trip-weighted kernel statistics — the ``k_*`` columns of the
    #: surrogate's feature row (:mod:`repro.cost.features`)
    statistics: dict[str, float]


def analyze(kernel: CKernel, *, tracer=NULL_TRACER) -> KernelAnalysis:
    """The analysis of ``kernel``, derived on first use and kept on it.

    ``tracer`` records one ``hls.analyze`` span and bumps the
    ``hls.analyses`` counter when (and only when) the AST is walked.
    """
    analysis = kernel.analysis
    if analysis is None:
        with tracer.span("hls.analyze") as span:
            analysis = kernel.analysis = _derive(kernel)
            span.set(loops=len(analysis.loops))
            tracer.metrics.incr("hls.analyses")
    return analysis


def _body_latency(info: LoopInfo) -> int:
    total = 0.0
    for category, count in info.body_ops.counts.items():
        total += OP_COSTS[category].latency * count
    return max(1, math.ceil(total / DEFAULT_ILP))


def _recurrence_latency(info: LoopInfo) -> int:
    if info.carried_array_dep or info.carried_scalar_dep:
        # Approximate the serial chain as a bit over half the body.
        return max(2, math.ceil(_body_latency(info) * 0.6))
    if info.is_reduction:
        total = sum(OP_COSTS[c].latency * n
                    for c, n in info.recurrence_ops.counts.items())
        return max(1, total)
    return 0


def _interface_bytes(info: LoopInfo, ports: list[str],
                     port_bytes: dict[str, int]) -> int:
    """Bytes of interface traffic per iteration of this loop's body."""
    if not ports:
        return 0
    accesses = info.body_ops.get("load") + info.body_ops.get("store")
    # Approximate: accesses are spread over the touched interface buffers.
    per_buffer = max(1, accesses // len(ports))
    return sum(per_buffer * port_bytes[name] for name in ports)


def _kernel_statistics(roots: list[LoopInfo],
                       loops: list[LoopInfo]) -> dict[str, float]:
    #: trip-count product of each loop's ancestors *including itself*
    trip_weight: dict[str, float] = {}

    def visit(info: LoopInfo, outer: float) -> None:
        weight = outer * float(info.trip_count or 1)
        trip_weight[info.label] = weight
        for child in info.children:
            visit(child, weight)

    for root in roots:
        visit(root, 1.0)

    weighted: dict[str, float] = {}
    arrays: set[str] = set()
    for info in loops:
        w = trip_weight[info.label]
        for category, count in info.body_ops.counts.items():
            weighted[category] = weighted.get(category, 0.0) + w * count
        arrays |= info.arrays_read | info.arrays_written
    total = sum(weighted.values()) or 1.0
    return {
        "k_loops": float(len(loops)),
        "k_max_depth": float(max((i.depth for i in loops), default=0)),
        "k_log_trips": sum(
            math.log2(max(1, i.trip_count or 1)) for i in loops),
        "k_log_ops": math.log2(1.0 + sum(weighted.values())),
        "k_frac_float": sum(weighted.get(c, 0.0)
                            for c in _FLOAT_OPS) / total,
        "k_frac_mem": sum(weighted.get(c, 0.0) for c in _MEM_OPS) / total,
        "k_frac_div": sum(weighted.get(c, 0.0) for c in _DIV_OPS) / total,
        "k_reductions": float(sum(1 for i in loops if i.is_reduction)),
        "k_carried": float(sum(
            1 for i in loops
            if i.carried_array_dep or i.carried_scalar_dep)),
        "k_arrays": float(len(arrays)),
    }


def _derive(kernel: CKernel) -> KernelAnalysis:
    infos = kernel_loop_tree(kernel)
    interface = [p for p in kernel.top_function.params if p.is_pointer]
    port_bytes = {p.name: p.ctype.width_bits // 8 for p in interface}
    buffers = tuple(
        LocalBuffer(name=decl.name,
                    banks=max(1, math.ceil(
                        decl.element_count * decl.ctype.width_bits
                        / BRAM_BLOCK_BITS)),
                    element_count=decl.element_count)
        for func in kernel.functions for decl in local_buffers(func))
    local_names = {buffer.name for buffer in buffers}

    def facts(info: LoopInfo) -> LoopFacts:
        arrays = info.arrays_read | info.arrays_written
        ports = sorted(name for name in arrays if name in port_bytes)
        lut = ff = dsp = 0
        for category, count in info.body_ops.counts.items():
            cost = OP_COSTS[category]
            lut += cost.lut * count
            ff += cost.ff * count
            dsp += cost.dsp * count
        return LoopFacts(
            label=info.label, trip_count=info.trip_count,
            children=tuple(facts(child) for child in info.children),
            is_task_loop=info.is_task_loop,
            is_reduction=info.is_reduction,
            dependence_bound=(info.carried_array_dep
                              or info.carried_scalar_dep),
            has_fspec=bool(info.body_ops.get("fspec")),
            body_latency=_body_latency(info),
            recurrence_latency=_recurrence_latency(info),
            lut=lut, ff=ff, dsp=dsp,
            ports=tuple(ports),
            interface_bytes=_interface_bytes(info, ports, port_bytes),
            local_arrays=tuple(sorted(arrays & local_names)),
            array_count=len(arrays),
            recurrence_ops=info.recurrence_ops.total)

    roots = tuple(facts(info) for info in infos)
    flat = flatten_loop_tree(infos)
    compute_kinds = {kind for info in flat for kind in info.body_ops.counts
                     if kind not in _MEM_OPS}
    task_labels = tuple(root.label for root in roots if root.is_task_loop)
    return KernelAnalysis(
        roots=roots,
        loops=tuple(flatten_loop_tree(roots)),
        task_labels=task_labels or (roots[0].label if roots else "L0",),
        ports=tuple(port_bytes),
        staging_bits=tuple(p.elem_count * p.ctype.width_bits
                           for p in interface if p.elem_count is not None),
        local_buffers=buffers,
        bytes_per_task=(kernel.metadata.get("bytes_in_per_task", 0)
                        + kernel.metadata.get("bytes_out_per_task", 0)),
        batch_size=kernel.metadata.get("batch_size", 1024),
        class_name=kernel.metadata.get("class_name", ""),
        is_simple=len(compute_kinds) <= _SIMPLE_OP_KINDS,
        statistics=_kernel_statistics(infos, flat))
