"""A trained surrogate as a :class:`CostModel` — microsecond QoR guesses.

The artifact produced by ``s2fa dataset train`` is a single JSON file:
the serialized regressor, the feature-schema and estimator versions it
was trained under, the target encoding, and the fidelity report measured
on held-out data.  :meth:`SurrogateCostModel.load` refuses artifacts
whose schema does not match this build, because silently scoring with
mismatched features is how surrogates go quietly wrong.

A surrogate's predictions are *never* persisted to the DSE cache
(``persistable = False``) and never trusted for a final optimum — the
engine uses them only to rank-and-prune candidate batches.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from ..errors import CostModelError
from ..hls.device import Device, VU9P
from ..hls.estimator import ESTIMATOR_VERSION
from ..merlin.config import DesignConfig
from ..obs.span import NULL_TRACER
from .base import CostModel, QoR
from .features import FEATURE_SCHEMA_VERSION, extract_features
from .models import load_model

#: Virtual minutes one surrogate prediction charges to the clock.  Same
#: magnitude as an in-run cache hit: effectively free next to the 1.5–10
#: minutes a real synthesis estimate costs.
SURROGATE_MINUTES = 0.05

#: Artifact format marker + version.
ARTIFACT_FORMAT = "s2fa-surrogate"
ARTIFACT_VERSION = 1


class SurrogateCostModel(CostModel):
    """Predicts QoR from features; used to prune, never to decide.

    ``target`` names the encoding of the regression target; the only
    supported encoding is ``log2_qor`` (log2 of normalized cycles, with
    infeasible points trained at ``infeasible_cutoff`` — predictions at
    or beyond the cutoff are reported infeasible).
    """

    persistable = False

    def __init__(self, model, *, target: str = "log2_qor",
                 infeasible_cutoff: Optional[float] = None,
                 fidelity: Optional[dict] = None,
                 trained_on: Optional[dict] = None):
        if target != "log2_qor":
            raise CostModelError(
                f"unsupported surrogate target {target!r}")
        self.model = model
        self.target = target
        self.infeasible_cutoff = infeasible_cutoff
        self.fidelity = dict(fidelity or {})
        self.trained_on = dict(trained_on or {})
        self.name = f"surrogate:{model.kind}"
        self._identity: Optional[str] = None

    # ------------------------------------------------------------------
    # CostModel interface
    # ------------------------------------------------------------------

    def identity(self) -> str:
        if self._identity is None:
            payload = json.dumps(self.model.to_dict(), sort_keys=True)
            digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
            self._identity = (f"surrogate:{self.model.kind}"
                              f":fs{FEATURE_SCHEMA_VERSION}:{digest}")
        return self._identity

    def score(self, kernel, config: DesignConfig,
              device: Device = VU9P, *, tracer=NULL_TRACER) -> QoR:
        features = extract_features(kernel, config, device)
        predicted = self.model.predict_one(features.as_list())
        feasible = (self.infeasible_cutoff is None
                    or predicted < self.infeasible_cutoff)
        value = 2.0 ** predicted if feasible else float("inf")
        tracer.metrics.incr("cost.surrogate.predictions")
        return QoR(value=value,
                   cycles=2.0 ** predicted,
                   feasible=feasible,
                   minutes=SURROGATE_MINUTES,
                   result=None,
                   source=self.identity())

    # ------------------------------------------------------------------
    # Artifact I/O
    # ------------------------------------------------------------------

    def to_artifact(self) -> dict:
        return {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "feature_schema": FEATURE_SCHEMA_VERSION,
            "estimator_version": ESTIMATOR_VERSION,
            "target": self.target,
            "infeasible_cutoff": self.infeasible_cutoff,
            "model": self.model.to_dict(),
            "fidelity": self.fidelity,
            "trained_on": self.trained_on,
        }

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_artifact(), indent=2, sort_keys=True)
            + "\n")

    @classmethod
    def load(cls, path) -> "SurrogateCostModel":
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise CostModelError(f"surrogate artifact not found: {path}") \
                from None
        except json.JSONDecodeError as exc:
            raise CostModelError(
                f"surrogate artifact {path} is not valid JSON: {exc}") \
                from None
        return cls.from_artifact(data)

    @classmethod
    def from_artifact(cls, data: dict) -> "SurrogateCostModel":
        if data.get("format") != ARTIFACT_FORMAT:
            raise CostModelError(
                f"not a surrogate artifact (format="
                f"{data.get('format')!r})")
        if data.get("version") != ARTIFACT_VERSION:
            raise CostModelError(
                f"surrogate artifact version {data.get('version')} "
                f"unsupported (expected {ARTIFACT_VERSION})")
        if data.get("feature_schema") != FEATURE_SCHEMA_VERSION:
            raise CostModelError(
                f"surrogate trained under feature schema "
                f"v{data.get('feature_schema')}, this build extracts "
                f"v{FEATURE_SCHEMA_VERSION} — retrain the model")
        cutoff = data.get("infeasible_cutoff")
        return cls(load_model(data["model"]),
                   target=data.get("target", "log2_qor"),
                   infeasible_cutoff=(float(cutoff)
                                      if cutoff is not None else None),
                   fidelity=data.get("fidelity"),
                   trained_on=data.get("trained_on"))
