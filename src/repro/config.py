"""Frozen run-configuration dataclasses for the S2FA facade and CLI.

These immutable dataclasses are the single definition of every run
knob: :class:`ExploreConfig` (compile + DSE), :class:`RuntimeConfig`
(Spark + Blaze offload path), :class:`DatasetConfig`,
:class:`StreamConfig` and :class:`ServeConfig`.  The facade consumes
them directly and all validate eagerly in ``__post_init__``, so a bad
knob fails at construction, not mid-run.  The ``s2fa`` command line is
a view of them: a field declared with :func:`_flag` is also a CLI flag
(``repro.cli`` reads its type and default from the field, the rest from
its metadata); a field declared plainly is API-only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import (
    BlazeError,
    DatasetError,
    DSEError,
    ServeError,
    StreamError,
)


def _flag(default, help, **spelling):
    """A field that is also an ``s2fa`` flag.

    ``help`` is the field's one description (``--help`` appends the
    default); ``spelling`` holds ``flag=`` when the flag is not
    ``--field-name`` and ``metavar=`` where the parser shows one.  A
    callable ``default`` is the factory of a mutable one.
    """
    kind = "default_factory" if callable(default) else "default"
    return field(**{kind: default}, metadata={"help": help, **spelling})


def _device_help() -> str:
    from .hls.device import device_names

    return ("target device model (registered: "
            + ", ".join(device_names()) + "); an unknown name fails "
            "with the registered list")


@dataclass(frozen=True)
class ExploreConfig:
    """Knobs of ``session.explore`` (compile + design space exploration).

    ``cache_dir`` enables the persistent evaluation cache so repeated
    explorations of the same kernel skip re-estimation.  It is also how
    an interrupted exploration resumes: rerun it with the same
    ``cache_dir`` and it replays to the identical result.
    """

    seed: int = _flag(
        0, "tuner RNG seed; the whole exploration is deterministic in it")
    time_limit_minutes: float = _flag(
        240.0, "virtual minutes", flag="--time-limit")
    cache_dir: Optional[str] = _flag(
        None, "persistent evaluation cache directory (repeated runs "
              "skip re-estimation; SIGINT/SIGTERM then exit 75, and a "
              "rerun with the same DIR resumes)", metavar="DIR")
    surrogate: Optional[str] = _flag(
        None, "learned cost-model artifact (from 's2fa dataset train'); "
              "the engine prunes each proposal batch by its "
              "predictions, but every reported design is still "
              "analytically scored", metavar="MODEL.json")
    prune_fraction: float = _flag(
        0.5, "fraction of each unseen batch the surrogate may prune, "
             "in [0, 1)")
    device: str = _flag("xcvu9p", _device_help, metavar="NAME")

    def __post_init__(self) -> None:
        self.resolve_device()           # fail on a bad name eagerly
        if not 0.0 <= self.prune_fraction < 1.0:
            raise DSEError("prune_fraction must be in [0, 1), got "
                           f"{self.prune_fraction}")
        if self.time_limit_minutes <= 0:
            raise DSEError("time_limit_minutes must be positive, got "
                           f"{self.time_limit_minutes}")

    def replace(self, **changes) -> "ExploreConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    def resolve_device(self):
        """The registered :class:`~repro.hls.device.Device` for
        ``device`` (typed error on an unknown name)."""
        from .hls.device import get_device

        return get_device(self.device)


@dataclass(frozen=True)
class DatasetConfig:
    """Knobs of ``s2fa dataset build`` (the QoR dataset factory).

    The factory sweeps kernels (the built-in app suite plus
    fuzz-generated ones) crossed with sampled Merlin configurations
    through the analytical estimator, and writes one versioned JSONL
    record per (kernel, config) pair.  The sweep is deterministic in
    ``seed``; with ``resume=True`` records already present in ``out``
    are kept and the sweep continues after them.
    """

    out: str = _flag("dataset.jsonl", "output JSONL path", metavar="FILE")
    seed: int = _flag(
        0, "sweep seed: kernels and sampled configs are a pure function "
           "of it")
    kernels: int = _flag(
        4, "fuzz-generated kernels on top of the app suite")
    configs: int = _flag(64, "sampled design configs per kernel")
    apps: bool = _flag(
        True, "skip the built-in application suite", flag="--no-apps")
    cache_dir: Optional[str] = _flag(
        None, "persistent evaluation cache directory", metavar="DIR")
    resume: bool = _flag(
        False, "keep records already in --out and continue after them")

    def __post_init__(self) -> None:
        if not self.out:
            raise DatasetError("out must name an output file")
        if self.kernels < 0:
            raise DatasetError(
                f"kernels must be >= 0, got {self.kernels}")
        if self.configs < 1:
            raise DatasetError(
                f"configs must be >= 1, got {self.configs}")
        if not self.apps and self.kernels == 0:
            raise DatasetError(
                "nothing to sweep: apps=False and kernels=0")

    def replace(self, **changes) -> "DatasetConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of ``session.run`` (Spark + Blaze deployment).

    ``fault_plan`` is the textual schedule spec of
    :meth:`repro.fpga.faults.FaultPlan.parse` (e.g.
    ``"transient=0.2,hang=0.05,lose_after=40"``).  The retry, deadline
    and quarantine constants of the offload path live in one place,
    :class:`repro.blaze.runtime.OffloadPolicy`.
    """

    partitions: int = _flag(4, "Spark partitions")
    fault_plan: Optional[str] = _flag(
        None, "device fault schedule, e.g. 'transient=0.2,hang=0.05,"
              "corrupt=0.1,lose_after=40'", metavar="SPEC")
    fault_seed: int = _flag(0, "seed of the fault schedule")
    #: Functional execution engine: ``"tac"`` (flattened register-IR
    #: engines) or ``"stack"`` (the original stack/tree walkers, kept
    #: as differential oracles).  ``None`` is the default engine (see
    #: :mod:`repro.engines`).
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        from .engines import resolve_engine

        resolve_engine(self.engine)     # fail on a bad name eagerly
        if self.partitions < 1:
            raise BlazeError(
                f"partitions must be >= 1, got {self.partitions}")
        # Parse eagerly so a bad spec fails at construction time.
        self.plan()

    def replace(self, **changes) -> "RuntimeConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    def policy(self):
        """The :class:`~repro.blaze.runtime.OffloadPolicy` (the default
        one: no run knob changes it)."""
        from .blaze.runtime import OffloadPolicy

        return OffloadPolicy()

    def plan(self):
        """The parsed :class:`~repro.fpga.faults.FaultPlan` (or None)."""
        if self.fault_plan is None:
            return None
        from .fpga.faults import FaultPlan

        return FaultPlan.parse(self.fault_plan, seed=self.fault_seed)


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of ``session.stream`` / the ``s2fa stream`` CLI verb.

    Batch *content* is pinned by ``(data_seed, batch_records)`` alone —
    micro-batch ``n`` always covers source offsets
    ``[n * batch_records, (n+1) * batch_records)`` — so every other knob
    here (intervals, lag thresholds, fault schedules in ``runtime``)
    changes only timing and placement, never what the sink records.
    The offload-path knobs (partitions, fault schedule, engine) ride
    along in ``runtime``, like :class:`ServeConfig`.
    """

    batch_records: int = _flag(32, "source records per micro-batch")
    interval_seconds: float = _flag(
        0.05, "micro-batch interval, virtual seconds",
        flag="--interval", metavar="SECONDS")
    total_records: Optional[int] = _flag(
        256, "bounded source size", flag="--records")
    max_batches: Optional[int] = _flag(
        None, "hard cap on micro-batches (default: until the source is "
              "exhausted)", flag="--batches")
    data_seed: int = _flag(21, "record generator seed")
    max_lag_intervals: float = _flag(
        2.0, "LAGGING threshold in batch intervals",
        flag="--max-lag", metavar="INTERVALS")
    sink: Optional[str] = _flag(
        None, "append sink rows to this JSONL file (default: in-memory)",
        metavar="FILE")
    checkpoint_dir: Optional[str] = _flag(
        None, "crash-safe exactly-once streaming: checkpoint source "
              "offsets + operator state here after every micro-batch "
              "(SIGINT/SIGTERM then exit 75 resumable)", metavar="DIR")
    resume: bool = _flag(
        False, "resume from the checkpoint in --checkpoint-dir if one "
               "exists")
    #: Offload-path configuration (fault schedule, engine).
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)

    def __post_init__(self) -> None:
        if self.batch_records < 1:
            raise StreamError(
                f"batch_records must be >= 1, got {self.batch_records}")
        if self.interval_seconds <= 0:
            raise StreamError(
                "interval_seconds must be positive, got "
                f"{self.interval_seconds}")
        if self.total_records is not None and self.total_records < 0:
            raise StreamError(
                f"total_records must be >= 0, got {self.total_records}")
        if self.max_batches is not None and self.max_batches < 1:
            raise StreamError(
                f"max_batches must be >= 1, got {self.max_batches}")
        if self.total_records is None and self.max_batches is None:
            raise StreamError(
                "an unbounded source (total_records=None) needs "
                "max_batches to bound the run")
        if self.max_lag_intervals <= 0:
            raise StreamError(
                "max_lag_intervals must be positive, got "
                f"{self.max_lag_intervals}")
        if self.resume and not self.checkpoint_dir:
            raise StreamError(
                "resume=True needs checkpoint_dir (there is nowhere to "
                "resume from)")

    def replace(self, **changes) -> "StreamConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the ``s2fa serve`` multi-tenant daemon.

    The offload-path knobs (fault schedule, engine) ride along in
    ``runtime``; everything else here is the serving surface itself:
    admission bounds, fair-share weights, the board fleet width and
    its devices, deadlines, and circuit breaking.
    """

    queue_depth: int = _flag(
        64, "bounded per-tenant queue depth; a full queue sheds "
            "OVERLOADED")
    # Do not mutate the mapping after construction — the config is
    # conceptually frozen.
    tenant_weights: Mapping[str, int] = _flag(
        dict, "weighted-round-robin weight for a tenant (repeatable; "
              "others get weight 1)",
        flag="--tenant-weight", metavar="TENANT=W")
    replicas: int = _flag(2, "virtual boards per kernel")
    device: str = _flag("xcvu9p", _device_help, metavar="NAME")
    fleet_devices: tuple = _flag(
        (), "heterogeneous board fleet: comma-separated registered "
            "device names assigned to replicas round-robin "
            "(placement/timing only; results stay bit-identical)",
        metavar="A,B,C")
    default_deadline_s: Optional[float] = _flag(
        None, "default per-request deadline in virtual seconds "
              "(default: unbounded)",
        flag="--default-deadline", metavar="SECONDS")
    breaker_threshold: int = _flag(
        3, "consecutive hardware failures before a kernel's circuit "
           "opens")
    breaker_reset_s: float = _flag(
        0.5, "circuit cooldown in virtual seconds before a half-open "
             "probe", flag="--breaker-reset")
    #: Offload-path configuration (fault schedule, engine).
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)

    def __post_init__(self) -> None:
        from .hls.device import get_device

        get_device(self.device)         # fail on a bad name eagerly
        for name in self.fleet_devices:
            get_device(name)
        if self.queue_depth < 1:
            raise ServeError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.replicas < 1:
            raise ServeError(
                f"replicas must be >= 1, got {self.replicas}")
        for tenant, weight in self.tenant_weights.items():
            if weight < 1:
                raise ServeError(
                    f"tenant {tenant!r}: weight must be >= 1, "
                    f"got {weight}")
        if (self.default_deadline_s is not None
                and self.default_deadline_s <= 0):
            raise ServeError(
                "default_deadline_s must be positive, got "
                f"{self.default_deadline_s}")
        if self.breaker_threshold < 1:
            raise ServeError(
                f"breaker_threshold must be >= 1, "
                f"got {self.breaker_threshold}")
        if self.breaker_reset_s <= 0:
            raise ServeError(
                f"breaker_reset_s must be positive, "
                f"got {self.breaker_reset_s}")

    def replace(self, **changes) -> "ServeConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)
