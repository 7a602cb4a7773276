"""HLS estimation results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


def _number(value):
    """A JSON number exactly as written: ``230`` stays an ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return value


@dataclass
class Resources:
    """Absolute resource usage."""

    lut: int = 0
    ff: int = 0
    dsp: int = 0
    bram: int = 0

    def add(self, lut: int = 0, ff: int = 0, dsp: int = 0,
            bram: int = 0) -> None:
        self.lut += lut
        self.ff += ff
        self.dsp += dsp
        self.bram += bram

    def merge(self, other: "Resources") -> None:
        self.add(other.lut, other.ff, other.dsp, other.bram)

    def as_dict(self) -> dict[str, int]:
        return {"lut": self.lut, "ff": self.ff, "dsp": self.dsp,
                "bram": self.bram}

    @classmethod
    def from_dict(cls, data: dict) -> "Resources":
        return cls(lut=int(data["lut"]), ff=int(data["ff"]),
                   dsp=int(data["dsp"]), bram=int(data["bram"]))


@dataclass
class LoopReport:
    """Per-loop scheduling outcome (for reports and debugging)."""

    label: str
    trip_count: Optional[int]
    iterations: int          # after unrolling
    ii: Optional[int]        # initiation interval when pipelined
    latency: int             # cycles for the whole loop nest
    pipelined: bool
    parallel: int
    note: str = ""


@dataclass
class HLSResult:
    """Outcome of estimating one design point.

    ``cycles`` is the kernel latency for one task batch at the achieved
    clock; ``normalized_cycles`` rescales to the 250 MHz target so designs
    with degraded clocks compare fairly (this is the paper's
    "normalized execution cycle" axis in Fig. 3).
    """

    feasible: bool
    cycles: int
    freq_mhz: float
    resources: Resources
    utilization: dict[str, float]
    ii_top: Optional[int]
    synthesis_minutes: float
    compute_cycles: int = 0
    memory_cycles: int = 0
    memory_bound: bool = False
    loops: list[LoopReport] = field(default_factory=list)
    infeasible_reason: str = ""

    @property
    def normalized_cycles(self) -> float:
        """Latency rescaled to the 250 MHz target clock."""
        if not self.feasible:
            return float("inf")
        return self.cycles * (250.0 / self.freq_mhz)

    @property
    def seconds_per_batch(self) -> float:
        """Wall time of one batch on the accelerator."""
        if not self.feasible:
            return float("inf")
        return self.cycles / (self.freq_mhz * 1e6)

    def utilization_percent(self, kind: str) -> int:
        return round(self.utilization[kind] * 100)

    def to_dict(self) -> dict:
        """JSON-serializable form (used by the persistent DSE cache)."""
        return {
            "feasible": self.feasible,
            "cycles": self.cycles,
            "freq_mhz": self.freq_mhz,
            "resources": self.resources.as_dict(),
            "utilization": dict(self.utilization),
            "ii_top": self.ii_top,
            "synthesis_minutes": self.synthesis_minutes,
            "compute_cycles": self.compute_cycles,
            "memory_cycles": self.memory_cycles,
            "memory_bound": self.memory_bound,
            "infeasible_reason": self.infeasible_reason,
            "loops": [
                {"label": lp.label, "trip_count": lp.trip_count,
                 "iterations": lp.iterations, "ii": lp.ii,
                 "latency": lp.latency, "pipelined": lp.pipelined,
                 "parallel": lp.parallel, "note": lp.note}
                for lp in self.loops
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HLSResult":
        """Inverse of :meth:`to_dict` (bit-exact for all fields)."""
        return cls(
            feasible=bool(data["feasible"]),
            cycles=int(data["cycles"]),
            freq_mhz=_number(data["freq_mhz"]),
            resources=Resources.from_dict(data["resources"]),
            utilization={k: _number(v)
                         for k, v in data["utilization"].items()},
            ii_top=data["ii_top"],
            synthesis_minutes=_number(data["synthesis_minutes"]),
            compute_cycles=int(data.get("compute_cycles", 0)),
            memory_cycles=int(data.get("memory_cycles", 0)),
            memory_bound=bool(data.get("memory_bound", False)),
            loops=[LoopReport(**lp) for lp in data.get("loops", [])],
            infeasible_reason=data.get("infeasible_reason", ""),
        )
