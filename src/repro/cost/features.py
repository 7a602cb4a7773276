"""Stable feature extraction: (kernel IR, design config) → FeatureVector.

The surrogate never sees source code — it sees a fixed-width vector of
named features derived from the kernel's loop tree (static per kernel)
and the *effective* design config (factor dependencies resolved, so a
loop buried under a ``flatten`` pipeline contributes its forced
full-unroll factors, not the dead knob settings the tuner proposed —
the same resolution the analytical model applies).

The schema is versioned: ``FEATURE_SCHEMA_VERSION`` is stored in every
dataset record and model artifact, and a model trained under one schema
refuses to score vectors from another.  Feature order is part of the
schema — append new features, never reorder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hls.analysis import LoopFacts, analyze
from ..hls.device import Device, VU9P
from ..merlin.config import DesignConfig
from ..errors import CostModelError

#: Bump when features are added or their meaning changes.
#: v2: the device envelope joined the feature row (``d_*`` features) —
#: the device is a first-class DSE dimension, so a surrogate must see
#: which envelope a point was scored against.
FEATURE_SCHEMA_VERSION = 2

#: Names, in vector order.  ``k_*`` are static kernel facts, ``c_*``
#: describe the (effective) config, ``p_*`` are physics proxies that
#: couple the two (lane counts, serial work, memory traffic).
FEATURE_NAMES = (
    # -- kernel ------------------------------------------------------
    "k_loops",            # number of loops in the tree
    "k_max_depth",        # deepest nesting level
    "k_log_trips",        # sum of log2(trip count) over loops
    "k_log_ops",          # log2(1 + trip-weighted total op count)
    "k_frac_float",       # float share of trip-weighted ops
    "k_frac_mem",         # load/store share of trip-weighted ops
    "k_frac_div",         # divide share (long pipelines) of ops
    "k_reductions",       # loops with a tree-reducible reduction
    "k_carried",          # loops with a non-reducible carried dep
    "k_arrays",           # distinct arrays touched
    # -- config ------------------------------------------------------
    "c_log_parallel",     # sum of log2(effective parallel factor)
    "c_log_tile",         # sum of log2(effective tile factor)
    "c_pipe_on",          # loops pipelined "on"
    "c_pipe_flatten",     # loops pipelined "flatten"
    "c_frac_pipelined",   # pipelined share of loops
    "c_log_bw",           # sum of log2(bitwidth / 16) over buffers
    "c_bw_max",           # log2 of the widest interface buffer
    # -- interaction proxies ----------------------------------------
    "p_log_lanes",        # log2 of the largest parallel-factor product
                          # along any root-to-leaf path (PE count proxy)
    "p_log_serial_work",  # log2(1 + trip-weighted ops / local lanes)
    "p_log_mem_traffic",  # log2(1 + accesses·trips / bitwidth words)
    "p_log_dsp",          # log2(1 + lanes · multiply-ish ops)
    "p_recurrence",       # worst recurrence depth under a pipeline (II)
    "p_log_bram_tiles",   # log2(1 + Σ tile · arrays touched) (BRAM)
    "p_flatten_unroll",   # log2 of iterations forced by flattening
    # -- device envelope (appended in schema v2) ---------------------
    "d_log_luts",         # log2 of the usable LUT budget
    "d_log_dsps",         # log2 of the usable DSP budget
    "d_log_bram",         # log2 of the usable BRAM-18k budget
    "d_log_mem_bw",       # log2 of off-chip bytes per kernel cycle
    "d_mhz",              # target clock / 100 MHz
)


def _log2p(x: float) -> float:
    return math.log2(1.0 + max(0.0, x))


@dataclass(frozen=True)
class FeatureVector:
    """One fixed-width, schema-versioned feature row."""

    values: tuple
    schema_version: int = FEATURE_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if len(self.values) != len(FEATURE_NAMES) \
                and self.schema_version == FEATURE_SCHEMA_VERSION:
            raise CostModelError(
                f"feature vector has {len(self.values)} values, schema "
                f"v{FEATURE_SCHEMA_VERSION} defines {len(FEATURE_NAMES)}")

    def as_list(self) -> list[float]:
        return list(self.values)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(FEATURE_NAMES, self.values))


def extract_features(kernel, config: DesignConfig,
                     device: Device = VU9P) -> FeatureVector:
    """Extract the full feature row for one (kernel, config, device).

    The ``k_*`` columns and the loop tree come from the kernel's shared
    :func:`~repro.hls.analysis.analyze` result, so scoring thousands of
    configs against one kernel walks its AST once.
    """
    analysis = analyze(kernel)
    effective = config.effective(analysis.roots)

    values = dict(analysis.statistics)
    log_parallel = log_tile = 0.0
    pipe_on = pipe_flatten = 0
    recurrence = 0.0
    bram_tiles = 0.0
    flatten_unroll = 0.0
    n_loops = max(1, len(analysis.loops))

    for info in analysis.loops:
        cfg = effective.loop(info.label)
        proposed = config.loop(info.label)
        log_parallel += math.log2(max(1, cfg.parallel))
        log_tile += math.log2(max(1, cfg.tile))
        if cfg.pipeline == "on":
            pipe_on += 1
        elif cfg.pipeline == "flatten":
            pipe_flatten += 1
        if cfg.pipeline != "off" and info.has_carried_dep:
            recurrence = max(recurrence, float(info.recurrence_ops))
        bram_tiles += cfg.tile * info.array_count
        # Iterations a flatten forced beyond what the tuner asked for.
        if cfg.parallel > proposed.parallel:
            flatten_unroll += (math.log2(max(1, cfg.parallel))
                               - math.log2(max(1, proposed.parallel)))

    values["c_log_parallel"] = log_parallel
    values["c_log_tile"] = log_tile
    values["c_pipe_on"] = float(pipe_on)
    values["c_pipe_flatten"] = float(pipe_flatten)
    values["c_frac_pipelined"] = (pipe_on + pipe_flatten) / n_loops

    bitwidths = effective.bitwidths or {}
    if bitwidths:
        values["c_log_bw"] = sum(
            math.log2(max(16, b) / 16.0) for b in bitwidths.values())
        values["c_bw_max"] = math.log2(max(bitwidths.values()))
        mean_words = (sum(max(16, b) for b in bitwidths.values())
                      / len(bitwidths)) / 32.0
    else:
        values["c_log_bw"] = 0.0
        values["c_bw_max"] = 5.0  # log2(32), the scalar default
        mean_words = 1.0

    # Largest lane product along any root-to-leaf path: the PE count the
    # duplicated datapath would need.
    def path_lanes(info: LoopFacts) -> float:
        own = math.log2(max(1, effective.loop(info.label).parallel))
        return own + max((path_lanes(c) for c in info.children),
                         default=0.0)

    log_lanes = max((path_lanes(r) for r in analysis.roots), default=0.0)
    lanes = 2.0 ** log_lanes

    weighted_ops = 2.0 ** values["k_log_ops"] - 1.0
    mem_share = values["k_frac_mem"]
    # Multiply-ish share: float + divide ops dominate DSP packing.
    mul_like = weighted_ops * (values["k_frac_float"]
                               + values["k_frac_div"])
    values["p_log_lanes"] = log_lanes
    values["p_log_serial_work"] = _log2p(weighted_ops / max(1.0, lanes))
    values["p_log_mem_traffic"] = _log2p(
        weighted_ops * mem_share / max(0.25, mean_words))
    values["p_log_dsp"] = _log2p(lanes * (mul_like + 1.0))
    values["p_recurrence"] = recurrence
    values["p_log_bram_tiles"] = _log2p(bram_tiles)
    values["p_flatten_unroll"] = flatten_unroll

    values["d_log_luts"] = _log2p(device.usable("lut"))
    values["d_log_dsps"] = _log2p(device.usable("dsp"))
    values["d_log_bram"] = _log2p(device.usable("bram"))
    values["d_log_mem_bw"] = _log2p(device.mem_bytes_per_cycle)
    values["d_mhz"] = device.target_mhz / 100.0

    return FeatureVector(tuple(values[name] for name in FEATURE_NAMES))
