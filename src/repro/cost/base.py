"""The :class:`CostModel` protocol and its :class:`QoR` return type.

A cost model answers one question — "what does this design point cost?" —
without promising *how*.  The analytical HLS estimator answers it in
virtual synthesis minutes; a trained surrogate answers it in microseconds
from a feature vector.  The DSE machinery only ever talks to this
interface, so the two are interchangeable wherever a full
:class:`~repro.hls.result.HLSResult` is not required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..hls.device import Device, VU9P
from ..hls.result import HLSResult, Resources
from ..merlin.config import DesignConfig
from ..obs.span import NULL_TRACER


@dataclass(frozen=True)
class QoR:
    """Quality-of-result of one scored design point.

    ``value`` is the optimization objective — normalized execution cycles,
    lower is better, ``inf`` when infeasible — so tuners can compare QoRs
    from *different* cost models on one axis.  ``minutes`` is the virtual
    synthesis time the scoring charges to the clock (the analytical model
    charges real synthesis minutes; a surrogate charges almost nothing).
    ``result`` carries the full HLS report when the model produced one;
    surrogates leave it ``None``.  ``source`` names the model identity
    that produced this QoR.
    """

    value: float
    cycles: float
    feasible: bool
    minutes: float
    result: Optional[HLSResult] = None
    source: str = ""

    def to_result(self, device: Device = VU9P) -> HLSResult:
        """A (possibly synthetic) :class:`HLSResult` view of this QoR.

        When the model produced a full report, that report is returned
        unchanged.  Otherwise a minimal placeholder is synthesized so
        code paths that require an ``HLSResult`` (reports, caches that
        were *not* supposed to receive surrogate data — see
        ``CostModel.persistable``) keep working.
        """
        if self.result is not None:
            return self.result
        if not self.feasible:
            return HLSResult(
                feasible=False, cycles=0, freq_mhz=device.target_mhz,
                resources=Resources(),
                utilization={"lut": 0.0, "ff": 0.0, "dsp": 0.0,
                             "bram": 0.0},
                ii_top=None, synthesis_minutes=self.minutes,
                infeasible_reason=f"predicted infeasible [{self.source}]")
        return HLSResult(
            feasible=True, cycles=int(round(self.cycles)),
            freq_mhz=device.target_mhz, resources=Resources(),
            utilization={"lut": 0.0, "ff": 0.0, "dsp": 0.0, "bram": 0.0},
            ii_top=None, synthesis_minutes=self.minutes)


class CostModel:
    """Scores a design point for one kernel on one device.

    Subclasses implement :meth:`score`; everything else is shared
    plumbing.  Two invariants every implementation must keep:

    * **identity is honest** — :meth:`identity` changes whenever the
      model would return different numbers for the same inputs, because
      the identity is hashed into DSE cache keys and checkpoint
      signatures;
    * **infeasible is a result, not an error** — a design that blows the
      device envelope returns ``QoR(feasible=False, value=inf)``;
      exceptions are reserved for broken inputs and are converted to
      infeasible QoRs by the :meth:`safe_score` firewall.
    """

    #: short human name ("analytical", "surrogate:ridge", ...).
    name: str = "costmodel"

    #: whether results from this model may enter the *persistent* DSE
    #: cache.  Only models whose numbers are true estimates (i.e. the
    #: analytical model) may persist; surrogate predictions must never
    #: masquerade as cached analytical evaluations.
    persistable: bool = False

    def identity(self) -> str:
        """Stable versioned identity, part of every cache key."""
        raise NotImplementedError

    def score(self, kernel, config: DesignConfig,
              device: Device = VU9P, *, tracer=NULL_TRACER) -> QoR:
        """Score one design point; raise only on broken inputs."""
        raise NotImplementedError

    def safe_score(self, kernel, point: dict, device: Device = VU9P,
                   tracer=NULL_TRACER) -> QoR:
        """Score one flat point, converting exceptions to infeasible QoRs.

        The exception firewall: a model bug degrades a single point
        instead of crashing the exploration.  Failure QoRs carry the
        ``evaluation error`` reason prefix so the evaluator never
        persists them.
        """
        from ..dse.evaluator import error_result
        try:
            config = DesignConfig.from_point(point)
            return self.score(kernel, config, device, tracer=tracer)
        except Exception as exc:  # noqa: BLE001 - deliberate firewall
            result = error_result(f"evaluation error: {exc}", device)
            return QoR(value=float("inf"), cycles=0.0, feasible=False,
                       minutes=result.synthesis_minutes, result=result,
                       source=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.identity()}>"
