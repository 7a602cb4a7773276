"""Analytical HLS estimation (the Xilinx SDx substitute).

Given a generated kernel and a :class:`~repro.merlin.config.DesignConfig`,
this module plays the role the paper assigns to "HLS of the Xilinx SDx":
estimate cycles and resource utilization for one design point.  The model
is deliberately structured around the effects the paper's DSE exploits:

* pipelining bounds latency by the initiation interval (II), which is in
  turn bound by loop-carried recurrences (reductions, wavefronts), by a
  13-cycle non-pipelined ``exp`` core (the LR case in Fig. 4), and by
  memory port width;
* parallel factors trade resources for iterations, but do nothing for
  dependence-bound loops and eventually hit routing walls — *except* for
  very simple compute patterns, the paper's argument against heuristic
  space pruning (Section 4.3.2);
* ``flatten`` fully unrolls sub-loops, exploding resources but enabling
  fine-grained pipelining of the nest (Impediment 2's factor dependency);
* buffer bit-widths set bytes-per-cycle on each port; AES/PR stay
  bandwidth-bound no matter the compute configuration (Table 2);
* tiling the task loop enables double buffering, overlapping transfer
  with compute.

What depends on the kernel alone (op mixes priced through the operator
table, recurrences, touched ports and buffers) is derived once per kernel
by :mod:`repro.hls.analysis`; this module is the per-point half —
arithmetic over those records and the effective config.

Each evaluation also charges *synthesis minutes* on the DSE's virtual
clock (Impediment 1: "HLS takes several minutes to evaluate one design
point"), and a small deterministic config-keyed perturbation keeps the
landscape rugged but reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..hlsc.ast import CKernel
from ..merlin.config import DesignConfig
from ..obs.span import NULL_TRACER
from ..utils import clamp, stable_unit
from .analysis import BRAM_BLOCK_BITS, KernelAnalysis, LoopFacts, analyze
from .device import Device, VU9P
from .optable import LOOP_OVERHEAD, OP_COSTS, PIPELINE_FILL
from .result import HLSResult, LoopReport, Resources

#: Version of the analytical model itself.  Bump whenever a change makes
#: the estimator return different numbers for the same (kernel, config,
#: device): the version is part of every cost-model identity, so cached
#: evaluations and trained surrogates from an older model are never mixed
#: with fresh ones.
ESTIMATOR_VERSION = 1

#: Baseline (control logic, AXI shell adapters) as fractions of the device.
_BASE_LUT_FRACTION = 0.03
_BASE_FF_FRACTION = 0.02
_BASE_BRAM_BLOCKS = 64

#: Routing wall: total PE product beyond which complex kernels fail.
_ROUTING_PE_LIMIT = 128


@dataclass
class _LoopOutcome:
    latency: int
    resources: Resources
    contains_fspec: bool
    recurrence_latency: int  # serial chain if this unit is replicated


@dataclass
class _Context:
    device: Device
    config: DesignConfig            # the *effective* config
    bitwidths: dict[str, int]
    bytes_per_task: int = 0
    reports: list[LoopReport] = field(default_factory=list)
    flatten_carried_dep: bool = False


def _task_stream_ii(ctx: _Context, parallel: int) -> int:
    """II floor of the task loop from interface streaming bandwidth."""
    if ctx.bytes_per_task <= 0:
        return 1
    widths = list(ctx.bitwidths.values()) or [32]
    port_bytes = max(1, min(min(widths) // 8, ctx.device.mem_bytes_per_cycle))
    return max(1, math.ceil(ctx.bytes_per_task * parallel / port_bytes))


def _port_bytes(info: LoopFacts, ctx: _Context) -> int:
    """Bytes per cycle of the narrowest interface port the body touches."""
    return max(1, min(ctx.bitwidths.get(name, 32)
                      for name in info.ports) // 8)


def _schedule(info: LoopFacts, ctx: _Context, flattened: bool) -> _LoopOutcome:
    cfg = ctx.config.loop(info.label)
    trip = info.trip_count if info.trip_count is not None else 64
    parallel = max(1, min(cfg.parallel, trip))
    pipeline = cfg.pipeline
    if flattened:
        parallel = trip
        pipeline = "off"

    children = [
        _schedule(child, ctx,
                  flattened=flattened or pipeline == "flatten")
        for child in info.children
    ]
    child_latency = sum(c.latency for c in children)
    child_fspec = any(c.contains_fspec for c in children)
    body_lat = info.body_latency
    contains_fspec = info.has_fspec or child_fspec
    recurrence = info.recurrence_latency

    resources = Resources(lut=info.lut * parallel, ff=info.ff * parallel,
                          dsp=info.dsp * parallel)
    for child in children:
        # Children replicated once per parallel lane of this loop.
        resources.add(lut=child.resources.lut * parallel,
                      ff=child.resources.ff * parallel,
                      dsp=child.resources.dsp * parallel,
                      bram=child.resources.bram * parallel)

    dependence_bound = info.dependence_bound
    if dependence_bound:
        # Parallel lanes cannot help a serial chain; hardware is
        # replicated but iterations stay sequential.
        iterations = trip
    else:
        iterations = max(1, math.ceil(trip / parallel))

    note = ""
    if flattened or parallel >= trip:
        # Fully unrolled: a straight-line unit.
        if dependence_bound:
            serial = max(recurrence, 1)
            latency = body_lat + serial * (trip - 1) + child_latency
            note = "unrolled serial chain"
        elif info.is_reduction:
            # HLS balances the unrolled accumulation into a tree.
            serial = max(recurrence, 1)
            depth = max(1, math.ceil(math.log2(max(2, trip))))
            latency = body_lat + serial * depth + child_latency
            note = "unrolled reduction tree"
        else:
            wide_ilp = min(parallel, 8)
            latency = max(1, math.ceil(
                (body_lat * trip) / wide_ilp)) + child_latency
            note = "fully unrolled"
        outcome_recurrence = recurrence * trip if dependence_bound else 0
        ctx.reports.append(LoopReport(
            label=info.label, trip_count=info.trip_count, iterations=1,
            ii=None, latency=latency, pipelined=False, parallel=parallel,
            note=note))
        return _LoopOutcome(latency=latency, resources=resources,
                            contains_fspec=contains_fspec,
                            recurrence_latency=outcome_recurrence)

    ii: Optional[int] = None
    if pipeline == "on" and not info.children:
        ii = 1
        if info.is_reduction:
            if parallel > 1:
                # Tree reduction: partial sums restore II=1; the combine
                # tree adds a logarithmic epilogue.
                ii = 1
                epilogue = recurrence * max(1, math.ceil(
                    math.log2(parallel)))
            else:
                ii = max(ii, recurrence)
                epilogue = 0
        else:
            epilogue = 0
        if dependence_bound:
            ii = max(ii, recurrence)
        if contains_fspec and not ctx.config.stage_split:
            ii = max(ii, OP_COSTS["fspec"].latency)
        elif contains_fspec:
            ii = max(ii, 2)
        if info.interface_bytes:
            ii = max(ii, math.ceil(
                (info.interface_bytes * parallel) / _port_bytes(info, ctx)))
        if info.is_task_loop:
            ii = max(ii, _task_stream_ii(ctx, parallel))
        latency = PIPELINE_FILL + body_lat + ii * (iterations - 1) + epilogue
        ctx.reports.append(LoopReport(
            label=info.label, trip_count=info.trip_count,
            iterations=iterations, ii=ii, latency=latency, pipelined=True,
            parallel=parallel, note="pipelined"))
        return _LoopOutcome(latency=latency, resources=resources,
                            contains_fspec=contains_fspec,
                            recurrence_latency=0)

    if pipeline == "flatten":
        # Children were scheduled fully unrolled; pipeline the flat body.
        flat_body = body_lat + child_latency
        ii = 1
        if info.is_reduction or dependence_bound:
            ii = max(ii, recurrence)
        child_chain = max((c.recurrence_latency for c in children),
                          default=0)
        if child_chain:
            # The unrolled child is a dependence chain, but successive
            # iterations of this loop overlap against it in a skewed
            # (systolic/wavefront) schedule: the II is about one cell
            # latency, not the whole chain.
            child_trips = max((child.trip_count or 1)
                              for child in info.children)
            cell = max(2, math.ceil(
                child_chain / max(1, child_trips) / 2))
            ii = max(ii, cell)
            ctx.flatten_carried_dep = True
        if contains_fspec and not ctx.config.stage_split:
            ii = max(ii, OP_COSTS["fspec"].latency)
        if info.interface_bytes:
            ii = max(ii, math.ceil(
                info.interface_bytes * parallel / _port_bytes(info, ctx)))
        if info.is_task_loop:
            ii = max(ii, _task_stream_ii(ctx, parallel))
        latency = PIPELINE_FILL + flat_body + ii * (iterations - 1)
        ctx.reports.append(LoopReport(
            label=info.label, trip_count=info.trip_count,
            iterations=iterations, ii=ii, latency=latency, pipelined=True,
            parallel=parallel, note="flattened pipeline"))
        return _LoopOutcome(latency=latency, resources=resources,
                            contains_fspec=contains_fspec,
                            recurrence_latency=0)

    if pipeline == "on" and info.children and not dependence_bound:
        # Merlin coarse-grained pipelining: double-buffer between the
        # body stages so successive iterations overlap; throughput is
        # bound by the slowest stage.
        stages = [body_lat + LOOP_OVERHEAD] + [c.latency for c in children]
        stage_ii = max(stages)
        if contains_fspec and not ctx.config.stage_split:
            # A naive exp core in the stage cannot accept new data every
            # cycle (the paper's LR II=13 case).
            stage_ii = max(stage_ii, OP_COSTS["fspec"].latency)
        if ctx.config.stage_split:
            # Manual statement splitting breaks the critical stage into a
            # deeper, finer pipeline (the LR manual design of Fig. 4).
            stage_ii = max(2, math.ceil(stage_ii / 6))
        if info.is_task_loop:
            # Replicated CUs share the memory interface: each pipeline
            # beat must stream `parallel` tasks' worth of bytes.
            stage_ii = max(stage_ii, _task_stream_ii(ctx, parallel))
        latency = sum(stages) + stage_ii * (iterations - 1)
        ctx.reports.append(LoopReport(
            label=info.label, trip_count=info.trip_count,
            iterations=iterations, ii=stage_ii, latency=latency,
            pipelined=True, parallel=parallel,
            note="coarse-grained pipeline"))
        return _LoopOutcome(latency=latency, resources=resources,
                            contains_fspec=contains_fspec,
                            recurrence_latency=0)

    # Sequential execution.
    per_iter = body_lat + child_latency + LOOP_OVERHEAD
    latency = iterations * per_iter
    if pipeline == "on" and info.children:
        latency = max(1, math.ceil(latency * 0.9))
        note = "pipeline serialized by loop-carried deps; slight overlap"
    else:
        note = "sequential"
    ctx.reports.append(LoopReport(
        label=info.label, trip_count=info.trip_count,
        iterations=iterations, ii=None, latency=latency, pipelined=False,
        parallel=parallel, note=note))
    return _LoopOutcome(latency=latency, resources=resources,
                        contains_fspec=contains_fspec,
                        recurrence_latency=0)


def _bram_usage(analysis: KernelAnalysis, ctx: _Context,
                task_tile: int) -> int:
    """BRAM blocks: local arrays (partitioned) + interface staging."""
    blocks = _BASE_BRAM_BLOCKS
    # Local arrays, replicated per parallel lane of loops touching them.
    lane_scale: dict[str, int] = {}

    def scan(info: LoopFacts, scale: int) -> None:
        cfg = ctx.config.loop(info.label)
        trip = info.trip_count or 64
        lanes = scale * max(1, min(cfg.parallel, trip))
        for name in info.local_arrays:
            lane_scale[name] = max(lane_scale.get(name, 1), lanes)
        for child in info.children:
            scan(child, lanes)

    for root in analysis.roots:
        scan(root, 1)

    for buffer in analysis.local_buffers:
        partition = min(lane_scale.get(buffer.name, 1),
                        buffer.element_count)
        blocks += buffer.banks * partition
    # Interface staging buffers: tile_factor tasks double-buffered.
    for bits in analysis.staging_bits:
        blocks += 2 * max(1, math.ceil(
            bits * max(1, task_tile) / BRAM_BLOCK_BITS))
    return blocks


def estimate(kernel: CKernel, config: DesignConfig,
             device: Device = VU9P, *,
             tracer=NULL_TRACER) -> HLSResult:
    """Estimate one design point; never raises for infeasible designs.

    The kernel is analysed on its first estimate
    (:func:`repro.hls.analysis.analyze`, one ``hls.analyze`` span) and
    every later point is arithmetic over that analysis.  ``tracer`` (a
    :mod:`repro.obs` tracer) records one ``hls.estimate`` span per call,
    attributed with feasibility, cycles, clock, and the synthesis minutes
    the evaluation charges to the DSE virtual clock.
    """
    analysis = analyze(kernel, tracer=tracer)
    with tracer.span("hls.estimate") as span:
        result = _estimate_model(analysis, config, device)
        span.set(feasible=result.feasible, cycles=result.cycles,
                 freq_mhz=result.freq_mhz,
                 vclock_minutes=result.synthesis_minutes)
        if result.infeasible_reason:
            span.set(infeasible_reason=result.infeasible_reason)
        tracer.metrics.incr("hls.estimates")
        tracer.metrics.observe("hls.estimate.synthesis_minutes",
                               result.synthesis_minutes)
    return result


def _estimate_model(analysis: KernelAnalysis, config: DesignConfig,
                    device: Device) -> HLSResult:
    """The per-point half of the model: arithmetic over the analysis."""
    roots = analysis.roots
    effective = config.effective(roots)
    bytes_per_task = analysis.bytes_per_task
    ctx = _Context(device=device, config=effective,
                   bitwidths=dict(config.bitwidths),
                   bytes_per_task=bytes_per_task)

    outcomes = [_schedule(root, ctx, flattened=False) for root in roots]
    compute_cycles = sum(o.latency for o in outcomes)
    resources = Resources(
        lut=int(device.luts * _BASE_LUT_FRACTION),
        ff=int(device.ffs * _BASE_FF_FRACTION),
    )
    for o in outcomes:
        resources.merge(o.resources)

    # Memory transfer: batch bytes over the configured port widths.
    total_bytes = bytes_per_task * analysis.batch_size
    port_widths = [config.bitwidths.get(name, 32)
                   for name in analysis.ports] or [32]
    per_port_bytes = sum(w // 8 for w in port_widths)
    effective_bytes_per_cycle = min(per_port_bytes,
                                    device.mem_bytes_per_cycle)
    memory_cycles = math.ceil(total_bytes /
                              max(1, effective_bytes_per_cycle))

    task_labels = analysis.task_labels
    task_cfg = effective.loop(task_labels[0])
    if task_cfg.tile > 1:
        # Double buffering overlaps transfer with compute.
        cycles = max(compute_cycles, memory_cycles) + \
            math.ceil(memory_cycles / max(1, task_cfg.tile))
    else:
        cycles = compute_cycles + memory_cycles
    # "Bandwidth-bound": transfers take at least ~80% of compute time, so
    # widening compute would not help (the AES/PR situation in Table 2).
    memory_bound = memory_cycles * 1.25 >= compute_cycles

    resources.bram = _bram_usage(analysis, ctx, task_cfg.tile)

    # PE product for routing pressure.
    def pe_product(info: LoopFacts) -> int:
        cfg = effective.loop(info.label)
        own = max(1, cfg.parallel)
        return own * max([pe_product(c) for c in info.children] or [1])

    pes = max((pe_product(root) for root in roots), default=1)

    utilization = {
        "lut": resources.lut / device.usable("lut"),
        "ff": resources.ff / device.usable("ff"),
        "dsp": resources.dsp / device.usable("dsp"),
        "bram": resources.bram / device.usable("bram"),
    }

    infeasible_reason = ""
    for kind, frac in utilization.items():
        if frac > 1.0:
            infeasible_reason = (
                f"{kind.upper()} over budget: {frac * 100:.0f}% of the "
                f"75% usable envelope")
            break
    if not infeasible_reason and pes > _ROUTING_PE_LIMIT \
            and not analysis.is_simple:
        infeasible_reason = (
            f"routing failure: {pes} parallel PEs with a complex "
            f"computational pattern")

    # Frequency: utilization + routing pressure degrade the clock.
    util_max = max(utilization.values())
    freq = device.target_mhz
    if util_max > 0.5:
        freq -= (util_max - 0.5) * 120
    freq -= math.log2(pes + 1) * 3
    if ctx.flatten_carried_dep:
        freq -= 60  # long wavefront wiring (the S-W case in Table 2)
    # Every deterministic perturbation is keyed by (kernel class, point).
    noise_key = (analysis.class_name,
                 tuple(sorted(config.to_point().items())))
    jitter = stable_unit("freq", *noise_key) - 0.5
    freq += jitter * 10
    freq = clamp(round(freq / 10) * 10, 100, device.target_mhz)

    # Deterministic landscape ruggedness on cycles.
    rug = 1.0 + 0.08 * (stable_unit("cycles", *noise_key) - 0.5)
    cycles = int(cycles * rug)

    # Synthesis cost on the virtual clock (minutes to ~an hour, worse for
    # larger designs — Impediment 1).
    synth = 1.5 + 5.5 * min(1.0, util_max) + 0.006 * pes
    synth *= 1.0 + 0.5 * (stable_unit("synth", *noise_key) - 0.5)
    synth = clamp(synth, 1.5, 10.0)

    top_ii = next((r.ii for r in ctx.reports
                   if r.label in task_labels and r.ii is not None), None)

    return HLSResult(
        feasible=not infeasible_reason,
        cycles=cycles,
        freq_mhz=freq,
        resources=resources,
        utilization=utilization,
        ii_top=top_ii,
        synthesis_minutes=synth,
        compute_cycles=compute_cycles,
        memory_cycles=memory_cycles,
        memory_bound=memory_bound,
        loops=ctx.reports,
        infeasible_reason=infeasible_reason,
    )
