"""DSE run results."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from ..hls.result import HLSResult
from .evaluator import ExplorationTrace


@dataclass
class PartitionReport:
    """Per-partition outcome inside an S2FA run."""

    index: int
    description: str
    evaluations: int
    best_qor: float
    stopped_early: bool
    start_minutes: float
    end_minutes: float


@dataclass
class DSERun:
    """Outcome of one exploration (S2FA or the OpenTuner baseline)."""

    name: str
    trace: ExplorationTrace
    best_point: Optional[dict]
    best_qor: float
    best_result: Optional[HLSResult]
    evaluations: int
    termination_minutes: float
    #: QoR of the very first evaluated point (seed effectiveness, Fig. 3)
    first_qor: float = float("inf")
    partitions: list[PartitionReport] = field(default_factory=list)
    space_size: int = 0
    #: evaluation-backend statistics (batching, cache hits) captured at
    #: the end of the run
    evaluator_stats: Optional[dict] = None
    #: surrogate pruning statistics (model identity, points pruned,
    #: finalize revalidation outcome); ``None`` when no surrogate ran
    surrogate_stats: Optional[dict] = None

    def to_dict(self) -> dict:
        """JSON-serializable summary (for plotting/archiving DSE runs)."""
        def finite(value: float):
            return value if math.isfinite(value) else None

        summary = {
            "name": self.name,
            "best_qor": finite(self.best_qor),
            "best_point": self.best_point,
            "evaluations": self.evaluations,
            "termination_minutes": self.termination_minutes,
            "first_qor": finite(self.first_qor),
            "space_size": float(self.space_size),
            "trace": [
                {"minutes": p.minutes, "best_qor": finite(p.best_qor),
                 "evaluations": p.evaluations}
                for p in self.trace.points
            ],
            "partitions": [
                {"index": p.index, "description": p.description,
                 "evaluations": p.evaluations,
                 "best_qor": finite(p.best_qor),
                 "stopped_early": p.stopped_early,
                 "start_minutes": p.start_minutes,
                 "end_minutes": p.end_minutes}
                for p in self.partitions
            ],
        }
        if self.evaluator_stats is not None:
            summary["evaluator_stats"] = self.evaluator_stats
        if self.surrogate_stats is not None:
            summary["surrogate_stats"] = self.surrogate_stats
        if self.best_result is not None:
            hls = self.best_result
            summary["best_design"] = {
                "cycles": hls.cycles,
                "freq_mhz": hls.freq_mhz,
                "utilization": {k: round(v, 4)
                                for k, v in hls.utilization.items()},
                "memory_bound": hls.memory_bound,
            }
        return summary

    def to_json(self, indent: int = 2) -> str:
        """Serialize :meth:`to_dict` to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)
