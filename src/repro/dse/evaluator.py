"""Design-point evaluation: Merlin transform + HLS estimation, cached.

The evaluator is shared by every tuner (S2FA and the OpenTuner baseline):
it turns a flat point into a :class:`DesignConfig`, invokes the HLS
estimator, and reports both the QoR (normalized execution cycles — lower
is better; infeasible points score infinity) and the synthesis minutes the
evaluation costs on the virtual clock.

Three layers of memoization, consulted in order:

1. the **in-run cache** — a repeated point inside one exploration returns
   ``cached=True`` and costs almost nothing on the virtual clock (the
   tuner "remembers" the result);
2. the optional **persistent store** (:class:`~repro.dse.cache.CacheStore`)
   — a point estimated by *any previous run* of the same kernel returns
   the stored result with its *original* synthesis minutes and
   ``cached=False``, so warm and cold runs produce identical virtual-clock
   timelines (persistence is a real-wall-clock optimization only);
3. the estimator itself.

The store is what makes an interrupted exploration resumable: a rerun
over it replays the killed run's trajectory exactly, because nothing
the engine decides depends on which layer answered a point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..compiler.driver import CompiledKernel
from ..cost import AnalyticalCostModel, CostModel
from ..hls.device import Device, VU9P
from ..hls.result import HLSResult, Resources
from ..obs.span import NULL_TRACER
from .cache import CacheStore, canonical_key, kernel_digest

#: Virtual minutes charged for an evaluation the backend failed to
#: produce (an estimator exception): the point is reported infeasible,
#: and the failed synthesis attempt still costs time.
FAILURE_MINUTES = 1.0

#: ``infeasible_reason`` prefixes marking backend failures (never
#: persisted — they are not true estimates of the design point).
FAILURE_PREFIXES = ("evaluation error",)


def error_result(reason: str, device: Device = VU9P) -> HLSResult:
    """Infeasible placeholder for a failed evaluation attempt."""
    return HLSResult(
        feasible=False, cycles=0, freq_mhz=device.target_mhz,
        resources=Resources(),
        utilization={"lut": 0.0, "ff": 0.0, "dsp": 0.0, "bram": 0.0},
        ii_top=None, synthesis_minutes=FAILURE_MINUTES,
        infeasible_reason=reason)


@dataclass
class Evaluation:
    """One evaluated design point.

    ``pruned`` marks a *surrogate verdict*, not a real evaluation: the
    engine skipped the analytical model on the surrogate's say-so, and
    ``qor``/``result`` hold the prediction.  Pruned evaluations never
    enter the evaluator caches and never become the reported optimum.
    """

    point: dict
    qor: float                  # normalized cycles; inf when infeasible
    result: HLSResult
    minutes: float              # synthesis cost charged to the clock
    cached: bool = False
    pruned: bool = False


@dataclass
class Evaluator:
    """Caches HLS estimates per unique (canonicalized) point.

    ``frequency_aware`` selects the QoR metric.  The paper's DSE optimizes
    raw cycle counts and leaves frequency modelling to future work
    (Section 5.2); with ``frequency_aware=True`` (our default, implementing
    that future work) the QoR is the cycle count rescaled to the target
    clock, so a design that only closes timing at 150 MHz is penalized
    accordingly.
    """

    compiled: CompiledKernel
    device: Device = VU9P
    frequency_aware: bool = True
    store: Optional[CacheStore] = None
    #: a :mod:`repro.obs` tracer; estimates and cache hits are recorded
    #: as ``hls.estimate`` spans and ``dse.cache.*`` counters.
    tracer: object = NULL_TRACER
    #: the :class:`~repro.cost.CostModel` that produces fresh results.
    #: Its ``identity()`` is part of the cache namespace, and only
    #: ``persistable`` models may write to the persistent store.
    cost_model: CostModel = field(default_factory=AnalyticalCostModel)
    evaluations: int = 0
    cache_hits: int = 0
    store_hits: int = 0
    batches: int = 0
    batched_points: int = 0
    max_batch: int = 0
    _cache: dict = field(default_factory=dict)
    _digest: Optional[str] = None

    @property
    def kernel_digest(self) -> str:
        """Cache identity of this kernel/device/cost-model context."""
        if self._digest is None:
            self._digest = kernel_digest(self.compiled.kernel, self.device,
                                         self.cost_model.identity())
        return self._digest

    def _qor(self, result) -> float:
        if not result.feasible:
            return float("inf")
        if self.frequency_aware:
            return result.normalized_cycles
        return float(result.cycles)

    # ------------------------------------------------------------------

    def _admit(self, point: dict, key: str, result: HLSResult,
               minutes: float, persist: bool) -> Evaluation:
        evaluation = Evaluation(point=dict(point), qor=self._qor(result),
                                result=result, minutes=minutes)
        self._cache[key] = evaluation
        self.evaluations += 1
        if persist and self.store is not None \
                and not result.infeasible_reason.startswith(
                    FAILURE_PREFIXES):
            self.store.put(self.kernel_digest, key, minutes, result)
        return evaluation

    def is_known(self, point: dict) -> bool:
        """Has this run already evaluated the point?

        True when the point is in the in-run cache.  The persistent
        store is deliberately not consulted: what an earlier run left
        there must not change this run's decisions, or a warm rerun
        would explore differently from a cold one.  Does not touch the
        hit/miss counters, so callers (the surrogate pruning stage) can
        ask freely: pruning a point whose answer is already paid for
        would only lose information.
        """
        return canonical_key(point) in self._cache

    def evaluate(self, point: dict) -> Evaluation:
        key = canonical_key(point)
        hit = self._cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            self.tracer.metrics.incr("dse.cache.memory_hits")
            return Evaluation(point=dict(point), qor=hit.qor,
                              result=hit.result, minutes=hit.minutes,
                              cached=True)
        if self.store is not None:
            stored = self.store.get(self.kernel_digest, key)
            if stored is not None:
                minutes, result = stored
                self.store_hits += 1
                self.tracer.metrics.incr("dse.cache.store_hits")
                return self._admit(point, key, result, minutes,
                                   persist=False)
        result = self.cost_model.safe_score(
            self.compiled.kernel, point, self.device,
            tracer=self.tracer).to_result(self.device)
        return self._admit(point, key, result, result.synthesis_minutes,
                           persist=self.cost_model.persistable)

    def evaluate_batch(self, points: list[dict]) -> list[Evaluation]:
        """Evaluate a candidate batch; results are in input order.

        Results are identical to ``[evaluate(p) for p in points]`` by
        construction; the batch is the unit the counters describe.
        """
        self.batches += 1
        self.batched_points += len(points)
        self.max_batch = max(self.max_batch, len(points))
        return [self.evaluate(point) for point in points]

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Per-run backend statistics (for reports and benchmarks)."""
        probes = self.evaluations + self.cache_hits
        hits = self.cache_hits + self.store_hits
        data = {
            "unique_points": len(self._cache),
            "estimates": self.evaluations - self.store_hits,
            "memory_hits": self.cache_hits,
            "store_hits": self.store_hits,
            "hit_rate": (hits / probes) if probes else 0.0,
            "batches": self.batches,
            "mean_batch": (self.batched_points / self.batches)
            if self.batches else 0.0,
            "max_batch": self.max_batch,
        }
        if self.store is not None:
            data["store"] = self.store.stats()
        return data


@dataclass
class TracePoint:
    """One sample of the best-so-far trajectory."""

    minutes: float
    best_qor: float
    evaluations: int


@dataclass
class ExplorationTrace:
    """Best-QoR-over-virtual-time record of one DSE run."""

    points: list[TracePoint] = field(default_factory=list)

    def record(self, minutes: float, best_qor: float,
               evaluations: int) -> None:
        self.points.append(TracePoint(minutes, best_qor, evaluations))

    @property
    def final_qor(self) -> float:
        finite = [p.best_qor for p in self.points
                  if p.best_qor != float("inf")]
        return finite[-1] if finite else float("inf")

    @property
    def end_minutes(self) -> float:
        return self.points[-1].minutes if self.points else 0.0

    def best_at(self, minutes: float) -> float:
        """Best QoR achieved by the given virtual time."""
        best = float("inf")
        for p in self.points:
            if p.minutes <= minutes:
                best = min(best, p.best_qor)
        return best

    def merged_with(self, other: "ExplorationTrace") -> "ExplorationTrace":
        merged = ExplorationTrace(sorted(
            self.points + other.points, key=lambda p: p.minutes))
        # Re-normalize to a monotone best-so-far curve.
        best = float("inf")
        out = ExplorationTrace()
        for p in merged.points:
            best = min(best, p.best_qor)
            out.record(p.minutes, best, p.evaluations)
        return out
