"""Design configurations: the Table 1 factors bound to concrete values.

A :class:`DesignConfig` assigns, per labelled loop, the tiling factor,
parallel (unroll) factor, and pipeline mode, plus a buffer bit-width per
interface buffer.  Configs are the unit of currency between the Merlin
transform driver, the HLS estimator, and the DSE engine (which manipulates
them in flattened ``{param_name: value}`` form).

``effective()`` resolves the factor dependencies of Impediment 2: a loop
whose ancestor is ``flatten``-pipelined has *all* of its own factors
invalidated (the sub-loops are fully unrolled), yet those parameters stay
in the search space — exactly the property that confuses the learning
algorithms and motivates the paper's decision-tree partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from ..errors import TransformError
from ..hlsc.analysis import LoopInfo

PIPELINE_MODES = ("off", "on", "flatten")


@dataclass(frozen=True)
class LoopConfig:
    """Factors applied to one loop."""

    tile: int = 1
    parallel: int = 1
    pipeline: str = "off"

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINE_MODES:
            raise TransformError(
                f"invalid pipeline mode {self.pipeline!r}")
        if self.tile < 1 or self.parallel < 1:
            raise TransformError(
                f"tile/parallel factors must be >= 1, got "
                f"tile={self.tile} parallel={self.parallel}")


#: What an unconfigured loop gets (immutable, so one instance serves all).
_DEFAULT_LOOP = LoopConfig()


@dataclass
class DesignConfig:
    """A complete design point in structured form."""

    loops: dict[str, LoopConfig] = field(default_factory=dict)
    bitwidths: dict[str, int] = field(default_factory=dict)
    #: manual-only expert transform (LR's pipeline stage splitting in
    #: Fig. 4); never part of the automatic design space.
    stage_split: bool = False

    def loop(self, label: str) -> LoopConfig:
        return self.loops.get(label, _DEFAULT_LOOP)

    def bitwidth(self, buffer: str, default: int = 32) -> int:
        return self.bitwidths.get(buffer, default)

    def with_loop(self, label: str, **kwargs) -> "DesignConfig":
        loops = dict(self.loops)
        loops[label] = replace(self.loop(label), **kwargs)
        return DesignConfig(loops=loops, bitwidths=dict(self.bitwidths),
                            stage_split=self.stage_split)

    # ------------------------------------------------------------------
    # Flat point encoding (what the tuner mutates)
    # ------------------------------------------------------------------

    def to_point(self) -> dict[str, object]:
        point: dict[str, object] = {}
        for label, cfg in self.loops.items():
            point[f"{label}.tile"] = cfg.tile
            point[f"{label}.parallel"] = cfg.parallel
            point[f"{label}.pipeline"] = cfg.pipeline
        for buffer, bits in self.bitwidths.items():
            point[f"bw.{buffer}"] = bits
        return point

    @classmethod
    def from_point(cls, point: dict[str, object]) -> "DesignConfig":
        loops: dict[str, dict] = {}
        bitwidths: dict[str, int] = {}
        for name, value in point.items():
            if name.startswith("bw."):
                bitwidths[name[3:]] = int(value)
                continue
            label, _, factor = name.rpartition(".")
            if factor not in ("tile", "parallel", "pipeline"):
                raise TransformError(f"unknown design parameter {name!r}")
            loops.setdefault(label, {})[factor] = value
        return cls(
            loops={label: LoopConfig(**kwargs)
                   for label, kwargs in loops.items()},
            bitwidths=bitwidths,
        )

    # ------------------------------------------------------------------
    # Dependency resolution
    # ------------------------------------------------------------------

    def effective(self, roots: Iterable[LoopInfo]) -> "DesignConfig":
        """Resolve factor dependencies against a loop tree.

        ``roots`` is any tree of nodes with ``label``, ``trip_count`` and
        ``children`` — the AST-level :class:`LoopInfo` or the per-kernel
        :class:`~repro.hls.analysis.LoopFacts`.
        Under a ``flatten`` pipeline, every descendant loop is fully
        unrolled: its configured factors are replaced by
        ``parallel=trip_count, pipeline=off, tile=1``.  Loops whose
        parallel factor exceeds their trip count are clamped.
        """
        resolved: dict[str, LoopConfig] = {}

        def visit(info: LoopInfo, flattened: bool) -> None:
            cfg = self.loop(info.label)
            if flattened:
                trip = info.trip_count or 1
                resolved[info.label] = LoopConfig(
                    tile=1, parallel=trip, pipeline="off")
                for child in info.children:
                    visit(child, True)
                return
            trip = info.trip_count
            parallel = cfg.parallel
            tile = cfg.tile
            if trip is not None:
                parallel = min(parallel, trip)
                tile = min(tile, trip)
            resolved[info.label] = LoopConfig(
                tile=tile, parallel=parallel, pipeline=cfg.pipeline)
            for child in info.children:
                visit(child, cfg.pipeline == "flatten")

        for root in roots:
            visit(root, False)
        return DesignConfig(loops=resolved, bitwidths=dict(self.bitwidths),
                            stage_split=self.stage_split)

    def describe(self) -> str:
        """Compact human-readable form for logs and reports."""
        parts = []
        for label in sorted(self.loops):
            cfg = self.loops[label]
            parts.append(
                f"{label}[t{cfg.tile} p{cfg.parallel} {cfg.pipeline}]")
        for buffer in sorted(self.bitwidths):
            parts.append(f"{buffer}:bw{self.bitwidths[buffer]}")
        return " ".join(parts)
