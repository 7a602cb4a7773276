"""Crash-safe exploration checkpointing.

The DSE is the longest-lived process in the pipeline, so it must survive
preemption: this module journals the *complete* explorer state — the
decision-tree partitions, every bandit's sliding window and technique
populations, the stopping rules' entropy history, all RNG streams, the
virtual-clock budget accounting, and the best-so-far design — into one
atomic, versioned, schema-validated JSON file per kernel digest.

Guarantees:

* **Atomicity** — a checkpoint is saved through
  :class:`~repro.durable.SnapshotStore`; a crash at any instant leaves
  either the old or the new checkpoint intact, never a torn file.
* **Batch-boundary semantics** — the engine snapshots only between
  batches, when the event heap is empty and no partition has an
  in-flight evaluation, so the saved state is exactly "the run up to
  round *N*".
* **Determinism under resume** — restoring the RNG streams and learner
  state replays the identical proposal sequence, and the persistent
  :class:`~repro.dse.cache.CacheStore` replays the killed batch's
  already-estimated points as store hits with their original synthesis
  minutes.  (checkpoint + cache) therefore reproduces the bit-identical
  trajectory of an uninterrupted run with zero duplicate backend
  evaluations.

Checkpoint files are JSON with the Python extensions for non-finite
floats (``Infinity`` appears wherever a QoR is infinite); they are
written and read only by this module.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Optional

from ..durable import SnapshotStore
from ..errors import DSEError
from ..hls.result import HLSResult
from .bandit import AUCBandit, BanditTuner, _WindowEntry
from .evaluator import Evaluation, Evaluator
from .partition import Partition
from .space import DesignSpace
from .stopping import StoppingCriterion

#: Checkpoint format version; bumping it invalidates old checkpoints.
#: v2: samples are 5-tuples (the 5th element inlines the payload of a
#: surrogate-pruned evaluation, null for real ones) and evaluations
#: carry a ``pruned`` flag; the identity section names the cost model.
CHECKPOINT_VERSION = 2

#: ``kind`` marker distinguishing a checkpoint from other JSON files.
CHECKPOINT_KIND = "s2fa-dse-checkpoint"


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------

def rng_state_to_json(rng: random.Random) -> list:
    """JSON-encodable form of ``random.Random.getstate()``."""
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def rng_state_from_json(data) -> tuple:
    """Inverse of :func:`rng_state_to_json` (feeds ``setstate``)."""
    if (not isinstance(data, (list, tuple)) or len(data) != 3
            or not isinstance(data[1], (list, tuple))):
        raise DSEError(f"malformed RNG state in checkpoint: {data!r}")
    return (data[0], tuple(data[1]), data[2])


# ----------------------------------------------------------------------
# Space / identity fingerprints
# ----------------------------------------------------------------------

def space_fingerprint(space: DesignSpace) -> str:
    """Stable digest of a design space's parameter lists."""
    payload = [[p.name, list(p.values), p.kind, p.loop]
               for p in space.parameters]
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":"),
                   default=str).encode()).hexdigest()[:24]


# ----------------------------------------------------------------------
# Evaluations (the evaluator's in-run cache)
# ----------------------------------------------------------------------

def evaluation_to_json(evaluation: Evaluation) -> dict:
    return {
        "point": dict(evaluation.point),
        "qor": evaluation.qor,
        "minutes": evaluation.minutes,
        "cached": evaluation.cached,
        "pruned": evaluation.pruned,
        "result": evaluation.result.to_dict(),
    }


def evaluation_from_json(data: dict) -> Evaluation:
    try:
        return Evaluation(
            point=dict(data["point"]), qor=data["qor"],
            result=HLSResult.from_dict(data["result"]),
            minutes=data["minutes"], cached=bool(data.get("cached")),
            pruned=bool(data.get("pruned")))
    except (KeyError, TypeError, ValueError) as exc:
        raise DSEError(
            f"malformed evaluation in checkpoint: {exc}") from exc


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------

def partition_to_json(partition: Partition) -> dict:
    return {
        "constraints": [[name, list(values)]
                        for name, values in partition.constraints.items()],
        "predicted_qor": partition.predicted_qor,
        "rules": list(partition.rules),
        "index": partition.index,
    }


def partition_from_json(data: dict) -> Partition:
    try:
        return Partition(
            constraints={name: tuple(values)
                         for name, values in data["constraints"]},
            predicted_qor=data["predicted_qor"],
            rules=list(data["rules"]), index=data["index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DSEError(
            f"malformed partition in checkpoint: {exc}") from exc


# ----------------------------------------------------------------------
# Search-technique populations
#
# Each codec pair captures exactly the mutable attributes the technique
# evolves during a run; constructor-time randomness is irrelevant because
# the tuner's RNG stream is restored afterwards.
# ----------------------------------------------------------------------

def _dump_greedy(t) -> dict:
    return {}


def _load_greedy(t, data: dict) -> None:
    pass


def _dump_de(t) -> dict:
    return {
        "members": [{"indices": list(m.indices), "qor": m.qor,
                     "pending": m.pending} for m in t.members],
        "cursor": t._cursor,
        "initializing": t._initializing,
    }


def _load_de(t, data: dict) -> None:
    from .techniques.de import _Member

    t.members = [
        _Member(indices=list(m["indices"]), qor=m["qor"],
                pending=m["pending"])
        for m in data["members"]
    ]
    t._cursor = data["cursor"]
    t._initializing = data["initializing"]


def _dump_pso(t) -> dict:
    return {
        "particles": [
            {"position": list(p.position), "velocity": list(p.velocity),
             "best_position": list(p.best_position),
             "best_qor": p.best_qor, "pending": p.pending}
            for p in t.particles
        ],
        "cursor": t._cursor,
        "initializing": t._initializing,
    }


def _load_pso(t, data: dict) -> None:
    from .techniques.pso import _Particle

    t.particles = [
        _Particle(position=list(p["position"]),
                  velocity=list(p["velocity"]),
                  best_position=list(p["best_position"]),
                  best_qor=p["best_qor"], pending=p["pending"])
        for p in data["particles"]
    ]
    t._cursor = data["cursor"]
    t._initializing = data["initializing"]


def _dump_sa(t) -> dict:
    return {
        "temperature": t.temperature,
        "current": list(t.current),
        "current_qor": t.current_qor,
        "pending": t._pending,
        "pending_indices": list(getattr(t, "_pending_indices", None) or [])
        or None,
    }


def _load_sa(t, data: dict) -> None:
    t.temperature = data["temperature"]
    t.current = list(data["current"])
    t.current_qor = data["current_qor"]
    t._pending = data["pending"]
    if data.get("pending_indices") is not None:
        t._pending_indices = list(data["pending_indices"])


_TECHNIQUE_CODECS = {
    "greedy-mutation": (_dump_greedy, _load_greedy),
    "differential-evolution": (_dump_de, _load_de),
    "particle-swarm": (_dump_pso, _load_pso),
    "simulated-annealing": (_dump_sa, _load_sa),
}


# ----------------------------------------------------------------------
# Bandit tuners
# ----------------------------------------------------------------------

def tuner_to_json(tuner: BanditTuner) -> dict:
    techniques = {}
    for t in tuner.techniques:
        dump, _ = _TECHNIQUE_CODECS.get(t.name, (_dump_greedy, None))
        techniques[t.name] = dump(t)
    return {
        "rng": rng_state_to_json(tuner.rng),
        "seed_queue": [dict(point) for point in tuner._seed_queue],
        "best": {"point": tuner.best.point, "qor": tuner.best.qor},
        "bandit": {
            "window": [[e.technique, e.improved]
                       for e in tuner.bandit.window],
            "uses": dict(tuner.bandit.uses),
            "total": tuner.bandit.total,
            "exploration": tuner.bandit.exploration,
        },
        "techniques": techniques,
    }


def restore_tuner(tuner: BanditTuner, data: dict) -> None:
    """Overwrite a freshly constructed tuner with checkpointed state."""
    try:
        names = {t.name for t in tuner.techniques}
        saved = set(data["techniques"])
        if names != saved:
            raise DSEError(
                f"checkpoint technique portfolio {sorted(saved)} does not "
                f"match this build's {sorted(names)}")
        tuner.rng.setstate(rng_state_from_json(data["rng"]))
        tuner._seed_queue = [dict(point) for point in data["seed_queue"]]
        tuner.best.point = (dict(data["best"]["point"])
                            if data["best"]["point"] is not None else None)
        tuner.best.qor = data["best"]["qor"]
        bandit: AUCBandit = tuner.bandit
        bandit.window.clear()
        for technique, improved in data["bandit"]["window"]:
            bandit.window.append(_WindowEntry(technique=technique,
                                              improved=improved))
        bandit.uses = {name: int(count)
                       for name, count in data["bandit"]["uses"].items()}
        bandit.total = int(data["bandit"]["total"])
        bandit.exploration = data["bandit"]["exploration"]
        for t in tuner.techniques:
            _, load = _TECHNIQUE_CODECS.get(t.name, (None, _load_greedy))
            load(t, data["techniques"][t.name])
    except DSEError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DSEError(f"malformed tuner state in checkpoint: "
                       f"{type(exc).__name__}: {exc}") from exc


# ----------------------------------------------------------------------
# Stopping rules
# ----------------------------------------------------------------------

def stopping_to_json(stopping: StoppingCriterion) -> dict:
    return {
        "class": type(stopping).__name__,
        "state": dict(stopping.__dict__),
    }


def restore_stopping(stopping: StoppingCriterion, data: dict) -> None:
    """Overwrite a factory-fresh stopping rule with checkpointed state."""
    try:
        if data["class"] != type(stopping).__name__:
            raise DSEError(
                f"checkpoint stopping rule {data['class']!r} does not "
                f"match this run's {type(stopping).__name__!r}")
        stopping.__dict__.update(data["state"])
    except DSEError:
        raise
    except (KeyError, TypeError) as exc:
        raise DSEError(f"malformed stopping state in checkpoint: "
                       f"{exc}") from exc


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------

def validate_checkpoint(payload) -> list[str]:
    """Structural problems of a checkpoint payload (empty = valid).

    A version mismatch is reported as a problem too: old checkpoints are
    rejected, never mis-parsed.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"checkpoint is {type(payload).__name__}, expected object"]
    if payload.get("kind") != CHECKPOINT_KIND:
        problems.append(f"kind is {payload.get('kind')!r}, "
                        f"expected {CHECKPOINT_KIND!r}")
    if payload.get("version") != CHECKPOINT_VERSION:
        problems.append(
            f"checkpoint version {payload.get('version')!r} is not "
            f"supported (this build reads version {CHECKPOINT_VERSION})")
        return problems      # do not inspect an alien schema further
    if not isinstance(payload.get("identity"), dict):
        problems.append("identity is missing or not an object")
    rng = payload.get("rng")
    if not (isinstance(rng, list) and len(rng) == 3
            and isinstance(rng[1], list)):
        problems.append("rng stream is missing or malformed")
    for name in ("rounds", "sequence"):
        if not isinstance(payload.get(name), int):
            problems.append(f"{name} is missing or not an integer")
    states = payload.get("states")
    if not isinstance(states, list) or not states:
        problems.append("states is missing or empty")
        states = []
    for i, state in enumerate(states):
        if not isinstance(state, dict):
            problems.append(f"states[{i}] is not an object")
            continue
        for name in ("partition", "tuner", "stopping"):
            if not isinstance(state.get(name), dict):
                problems.append(f"states[{i}].{name} is missing")
    for name in ("pending", "running"):
        ids = payload.get(name)
        if (not isinstance(ids, list)
                or not all(isinstance(i, int) and 0 <= i < len(states)
                           for i in ids)):
            problems.append(f"{name} is missing or indexes out of range")
    samples = payload.get("samples")
    if not isinstance(samples, list) or not all(
            isinstance(s, list) and len(s) == 5
            and isinstance(s[0], (int, float)) and isinstance(s[1], int)
            and isinstance(s[2], str) and isinstance(s[3], bool)
            and (s[4] is None or isinstance(s[4], dict))
            for s in samples):
        problems.append("samples is missing or malformed")
    cache = payload.get("cache")
    if not isinstance(cache, list) or not all(
            isinstance(e, dict) and isinstance(e.get("point"), dict)
            and isinstance(e.get("result"), dict)
            for e in cache or []):
        problems.append("cache is missing or malformed")
    evaluator = payload.get("evaluator")
    if not isinstance(evaluator, dict) or not all(
            isinstance(evaluator.get(k), int)
            for k in ("evaluations", "cache_hits", "store_hits",
                      "batches", "batched_points", "max_batch")):
        problems.append("evaluator counters are missing or malformed")
    return problems


# ----------------------------------------------------------------------
# Evaluator counters (budget accounting carried across a resume)
# ----------------------------------------------------------------------

def evaluator_counters(evaluator: Evaluator) -> dict:
    return {
        "evaluations": evaluator.evaluations,
        "cache_hits": evaluator.cache_hits,
        "store_hits": evaluator.store_hits,
        "batches": evaluator.batches,
        "batched_points": evaluator.batched_points,
        "max_batch": evaluator.max_batch,
    }


def restore_evaluator_counters(evaluator: Evaluator, data: dict) -> None:
    evaluator.evaluations = data["evaluations"]
    evaluator.cache_hits = data["cache_hits"]
    evaluator.store_hits = data["store_hits"]
    evaluator.batches = data["batches"]
    evaluator.batched_points = data["batched_points"]
    evaluator.max_batch = data["max_batch"]


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------

class CheckpointStore(SnapshotStore):
    """One checkpoint file per kernel digest in a directory.

    ``save`` is atomic and overwrites the previous checkpoint for the
    digest; ``load`` validates the schema and raises
    :class:`~repro.errors.DSEError` on corruption or a version mismatch
    rather than resuming from garbage; ``discard`` removes the file once
    a run completes, so a later ``--resume`` starts fresh.
    """

    suffix = ".ckpt.json"
    error = DSEError
    label = "checkpoint"

    def load(self, digest: str) -> Optional[dict]:
        """The validated checkpoint payload, or ``None`` if absent."""
        payload = super().load(digest)
        if payload is None:
            return None
        problems = validate_checkpoint(payload)
        if problems:
            raise DSEError(
                f"checkpoint {self.path(digest)} failed validation: "
                + "; ".join(problems))
        return payload
