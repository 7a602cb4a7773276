"""Frozen run-configuration dataclasses for the S2FA facade and CLI.

Before the :class:`~repro.s2fa.S2FASession` redesign, every entry point
grew its own ad-hoc keyword arguments (``cache_dir``,
``fault_plan``, ``fault_seed``, deadline/backoff knobs, ...).  These two
immutable dataclasses are now the single home for those knobs:

* :class:`ExploreConfig` — everything the compile + DSE half of the
  pipeline needs (seed, virtual time limit, tuner workers, persistent
  cache directory);
* :class:`RuntimeConfig` — everything the Spark + Blaze half needs
  (partitions, fault schedule, offload deadlines/backoff/quarantine).

The CLI is a pure argv -> config translation onto these types, and the
facade consumes them directly; both validate eagerly in
``__post_init__`` so a bad knob fails at construction, not mid-run.
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


@dataclass(frozen=True)
class ExploreConfig:
    """Knobs of ``session.explore`` (compile + design space exploration).

    ``cache_dir`` enables the persistent evaluation cache so repeated
    explorations of the same kernel skip re-estimation.
    """

    #: Tuner RNG seed (the whole exploration is deterministic in it).
    seed: int = 0
    #: Global virtual time limit, in synthesis minutes.
    time_limit_minutes: float = 240.0
    #: Virtual DSE workers (the paper's eight-core machine).
    workers: int = 8
    #: Persistent evaluation cache directory (``None`` disables).
    cache_dir: Optional[str] = None
    #: Decision-tree partition budget (Section 4.3.1).
    max_partitions: int = 8
    #: Exploration checkpoint directory (``None`` disables crash-safe
    #: checkpointing).  Also enables the evaluation cache there unless
    #: ``cache_dir`` names one explicitly — a resume needs the cache to
    #: replay the killed batch without duplicate backend evaluations.
    checkpoint_dir: Optional[str] = None
    #: Resume from the checkpoint in ``checkpoint_dir`` if one exists
    #: (otherwise start fresh — idempotent restart semantics for
    #: schedulers).
    resume: bool = False
    #: Path to a trained surrogate artifact (``s2fa dataset train``).
    #: When set, the engine scores each proposed batch with the
    #: surrogate and skips the analytically-worst fraction; the reported
    #: optimum is still always analytically verified.
    surrogate: Optional[str] = None
    #: Fraction of each unseen batch the surrogate may prune ([0, 1)).
    prune_fraction: float = 0.5
    #: Registered device name the exploration targets (the envelope the
    #: estimator scores against).  Unknown names fail eagerly with
    #: :class:`~repro.errors.UnknownDeviceError`.
    device: str = "xcvu9p"

    def __post_init__(self) -> None:
        self.resolve_device()           # fail on a bad name eagerly
        if not 0.0 <= self.prune_fraction < 1.0:
            raise DSEError("prune_fraction must be in [0, 1), got "
                           f"{self.prune_fraction}")
        if self.resume and not self.checkpoint_dir:
            raise DSEError(
                "resume=True needs checkpoint_dir (there is nowhere to "
                "resume from)")
        if self.workers < 1:
            raise DSEError(f"workers must be >= 1, got {self.workers}")
        if self.max_partitions < 1:
            raise DSEError(
                f"max_partitions must be >= 1, got {self.max_partitions}")
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

    #: Output JSONL path.
    out: str = "dataset.jsonl"
    #: Sweep RNG seed (kernel generation and config sampling).
    seed: int = 0
    #: Number of fuzz-generated kernels (on top of the app suite).
    kernels: int = 4
    #: Sampled design configurations per kernel.
    configs: int = 64
    #: Include the built-in application suite kernels.
    apps: bool = True
    #: Persistent evaluation cache directory (``None`` disables).
    cache_dir: Optional[str] = None
    #: Keep existing records in ``out`` and continue after them.
    resume: bool = False

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
    ``"transient=0.2,hang=0.05,lose_after=40"``); the offload knobs
    mirror :class:`repro.blaze.runtime.OffloadPolicy` field for field.
    """

    #: Spark partitions (each partition is one accelerator batch).
    partitions: int = 4
    #: Device fault schedule spec (``None`` = fault-free hardware).
    fault_plan: Optional[str] = None
    #: Seed of the fault schedule.
    fault_seed: int = 0
    #: Invocation attempts per batch before the board is quarantined.
    max_attempts: int = 3
    #: Host deadline per batch, virtual seconds.
    batch_deadline_seconds: float = 0.05
    #: Backoff before retry ``i`` is ``base * factor**(i-1)``.
    backoff_base_seconds: float = 1e-4
    backoff_factor: float = 2.0
    #: Quarantine ``q`` lasts ``base * factor**q`` before a probe.
    quarantine_base_seconds: float = 1e-2
    quarantine_factor: float = 2.0
    #: Functional execution engine: ``"tac"`` (flattened register-IR
    #: engines) or ``"stack"`` (the original stack/tree walkers, kept
    #: as differential oracles).  ``None`` defers to ``$S2FA_ENGINE``,
    #: then the default (see :mod:`repro.engines`).
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        from .engines import resolve_engine

        resolve_engine(self.engine)     # fail on a bad name eagerly
        if self.partitions < 1:
            raise BlazeError(
                f"partitions must be >= 1, got {self.partitions}")
        if self.max_attempts < 1:
            raise BlazeError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.batch_deadline_seconds <= 0:
            raise BlazeError("batch_deadline_seconds must be positive, "
                             f"got {self.batch_deadline_seconds}")
        # Parse eagerly so a bad spec fails at construction time.
        self.plan()

    def replace(self, **changes) -> "RuntimeConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    def policy(self):
        """The :class:`~repro.blaze.runtime.OffloadPolicy` equivalent."""
        from .blaze.runtime import OffloadPolicy

        return OffloadPolicy(
            max_attempts=self.max_attempts,
            batch_deadline_seconds=self.batch_deadline_seconds,
            backoff_base_seconds=self.backoff_base_seconds,
            backoff_factor=self.backoff_factor,
            quarantine_base_seconds=self.quarantine_base_seconds,
            quarantine_factor=self.quarantine_factor)

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
    The offload-path knobs (fault schedule, deadlines, engine) ride
    along in ``runtime``, like :class:`ServeConfig`.
    """

    #: Source records admitted per micro-batch.
    batch_records: int = 32
    #: Micro-batch interval, virtual seconds.
    interval_seconds: float = 0.05
    #: Bounded source size (``None`` = unbounded; ``max_batches`` must
    #: then bound the run).
    total_records: Optional[int] = 256
    #: Hard cap on micro-batches this run (``None`` = until the source
    #: is exhausted).
    max_batches: Optional[int] = None
    #: Seed of the deterministic record source.
    data_seed: int = 21
    #: Admission depth while keeping up (shrinks to 1 under LAGGING).
    prefetch_batches: int = 2
    #: LAGGING threshold: completion slip past the next batch's due
    #: time, in batch intervals.
    max_lag_intervals: float = 2.0
    #: Sink JSONL path (``None`` = in-memory sink).
    sink: Optional[str] = None
    #: Streaming checkpoint directory (``None`` disables crash-safe
    #: exactly-once recovery; the sink stays idempotent regardless).
    checkpoint_dir: Optional[str] = None
    #: Resume from the checkpoint in ``checkpoint_dir`` if one exists
    #: (otherwise start fresh — idempotent restart semantics).
    resume: bool = False
    #: Offload-path configuration (fault schedule, policy, engine).
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
        if self.prefetch_batches < 1:
            raise StreamError(
                "prefetch_batches must be >= 1, got "
                f"{self.prefetch_batches}")
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

    The offload-path knobs (deadlines, backoff, quarantine, fault
    schedule, engine) ride along in ``runtime``; everything else here is
    the serving surface itself: admission bounds, fair-share weights,
    the board fleet width, circuit breaking, and drain behaviour.
    """

    #: Bounded per-tenant queue depth; a full queue sheds (OVERLOADED).
    queue_depth: int = 64
    #: Per-tenant weighted-round-robin weights; unlisted tenants get
    #: ``default_weight``.  (Do not mutate the mapping after
    #: construction — the config is conceptually frozen.)
    tenant_weights: Mapping[str, int] = field(default_factory=dict)
    default_weight: int = 1
    #: Virtual FPGA boards deployed per kernel (the fleet width).
    replicas: int = 2
    #: Registered device name the serve core compiles and explores
    #: against (and the board model of a homogeneous fleet).
    device: str = "xcvu9p"
    #: Heterogeneous fleet: registered device names assigned to the
    #: replicas of every kernel round-robin (replica ``i`` runs on
    #: ``fleet_devices[i % len]``).  Empty = homogeneous on ``device``.
    #: Placement is device-aware (fastest board first) but results stay
    #: bit-identical to a homogeneous fleet under any fault schedule.
    fleet_devices: tuple = ()
    #: Default per-request deadline, virtual seconds (None: unbounded).
    default_deadline_s: Optional[float] = None
    #: Circuit breaker: consecutive hardware failures before a kernel's
    #: circuit opens, and the virtual-seconds cooldown before a probe.
    breaker_threshold: int = 3
    breaker_reset_s: float = 0.5
    #: Virtual time budget for ``explore=True`` requests (DSE minutes).
    explore_time_limit_minutes: float = 20.0
    #: Grace period (real seconds) for the in-flight request to finish
    #: during a drain before the daemon gives up and exits anyway.
    drain_grace_s: float = 10.0
    #: Offload-path configuration (fault schedule, policy, engine).
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
        if self.default_weight < 1:
            raise ServeError(
                f"default_weight must be >= 1, got {self.default_weight}")
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
        if self.explore_time_limit_minutes <= 0:
            raise ServeError(
                "explore_time_limit_minutes must be positive, got "
                f"{self.explore_time_limit_minutes}")
        if self.drain_grace_s <= 0:
            raise ServeError(
                f"drain_grace_s must be positive, "
                f"got {self.drain_grace_s}")

    def replace(self, **changes) -> "ServeConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)
