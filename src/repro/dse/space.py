"""Design space identification (Table 1 of the paper).

The space is built from the kernel's loop tree and interface layout:

========================  ==================================================
Factor                    Values
========================  ==================================================
Buffer bit-width          powers of two, element width .. 512
Loop tiling               powers of two, 1 .. trip count
Loop parallel             powers of two, 1 .. min(trip count, 256)
Loop pipeline             off / on / flatten
========================  ==================================================

Every parameter keeps its full value list even when another factor can
invalidate it (Impediment 2) — the space is *not* pruned, matching the
paper's design decision in Section 4.3.2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..compiler.driver import CompiledKernel
from ..errors import DSEError
from ..hls.analysis import analyze
from ..merlin.config import DesignConfig
from ..obs.span import NULL_TRACER
from ..utils import pow2_range

MAX_PARALLEL = 256
MAX_BITWIDTH = 512


@dataclass(frozen=True)
class Parameter:
    """One tunable factor with its discrete value list."""

    name: str
    values: tuple
    kind: str          # "tile" | "parallel" | "pipeline" | "bitwidth"
    loop: Optional[str] = None   # owning loop label, if any

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def index_of(self, value) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise DSEError(
                f"value {value!r} not in parameter {self.name}") from None

    def clamp_index(self, index: float) -> int:
        return max(0, min(len(self.values) - 1, int(round(index))))


@dataclass
class DesignSpace:
    """The complete factor space of one kernel."""

    parameters: list[Parameter] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_name = {p.name: p for p in self.parameters}

    def parameter(self, name: str) -> Parameter:
        try:
            return self._by_name[name]
        except KeyError:
            raise DSEError(f"unknown parameter {name!r}") from None

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def size(self) -> int:
        total = 1
        for p in self.parameters:
            total *= p.cardinality
        return total

    def default_point(self) -> dict:
        """Most conservative point: factor 1 / off / minimum width."""
        return {p.name: p.values[0] for p in self.parameters}

    def random_point(self, rng: random.Random) -> dict:
        return {p.name: rng.choice(p.values) for p in self.parameters}

    def validate(self, point: dict) -> None:
        if set(point) != set(self._by_name):
            missing = set(self._by_name) - set(point)
            extra = set(point) - set(self._by_name)
            raise DSEError(
                f"point does not match the space (missing={sorted(missing)},"
                f" extra={sorted(extra)})")
        for name, value in point.items():
            if value not in self._by_name[name].values:
                raise DSEError(
                    f"value {value!r} invalid for parameter {name}")

    def to_config(self, point: dict) -> DesignConfig:
        return DesignConfig.from_point(point)

    def restrict(self, constraints: dict[str, tuple]) -> "DesignSpace":
        """Sub-space with some parameters limited to value subsets."""
        params = []
        for p in self.parameters:
            if p.name in constraints:
                allowed = tuple(v for v in p.values
                                if v in constraints[p.name])
                if not allowed:
                    raise DSEError(
                        f"constraints empty out parameter {p.name}")
                params.append(Parameter(name=p.name, values=allowed,
                                        kind=p.kind, loop=p.loop))
            else:
                params.append(p)
        return DesignSpace(parameters=params)

    def project(self, point: dict) -> dict:
        """Clamp a point into this (possibly restricted) space."""
        projected = {}
        for p in self.parameters:
            value = point.get(p.name, p.values[0])
            if value in p.values:
                projected[p.name] = value
            else:
                # Nearest allowed value (numeric), else first.
                numeric = [v for v in p.values
                           if isinstance(v, (int, float))]
                if numeric and isinstance(value, (int, float)):
                    projected[p.name] = min(
                        numeric, key=lambda v: abs(v - value))
                else:
                    projected[p.name] = p.values[0]
        return projected


def build_space(compiled: CompiledKernel, *,
                tracer=NULL_TRACER) -> DesignSpace:
    """Identify the Table 1 design space of a compiled kernel.

    Usually the first reader of the kernel's analysis, hence ``tracer``:
    the ``hls.analyze`` span lands here, not under the first estimate.
    """
    parameters: list[Parameter] = []
    for info in analyze(compiled.kernel, tracer=tracer).loops:
        trip = info.trip_count or compiled.batch_size
        tiles = tuple(pow2_range(1, max(1, trip)))
        parallels = tuple(pow2_range(1, max(1, min(trip, MAX_PARALLEL))))
        parameters.append(Parameter(
            name=f"{info.label}.tile", values=tiles, kind="tile",
            loop=info.label))
        parameters.append(Parameter(
            name=f"{info.label}.parallel", values=parallels,
            kind="parallel", loop=info.label))
        parameters.append(Parameter(
            name=f"{info.label}.pipeline", values=("off", "on", "flatten"),
            kind="pipeline", loop=info.label))
    for leaf in compiled.layout.leaves:
        low = max(16, leaf.ctype.width_bits)
        widths = tuple(pow2_range(low, MAX_BITWIDTH))
        parameters.append(Parameter(
            name=f"bw.{leaf.name}", values=widths, kind="bitwidth"))
    return DesignSpace(parameters=parameters)
