"""The serve core: admission → tenant queues → scheduler → board fleet.

:class:`ServeCore` is the transport-independent heart of ``s2fa serve``.
The socket daemon (:mod:`repro.serve.daemon`) and the deterministic load
harness (:mod:`repro.serve.loadgen`) both drive exactly this object; the
only difference is who calls :meth:`submit` and who pumps :meth:`step`.

The request path::

    submit(request)                       step()
    ├── draining?  -> SHUTTING_DOWN       ├── weighted round-robin pick
    ├── queue full -> OVERLOADED          ├── deadline already blown?
    │   (+ retry_after backpressure)      │      -> DEADLINE_EXCEEDED
    └── queued (bounded, per tenant)      ├── design cache (compile/DSE
                                          │   amortized across tenants)
                                          ├── circuit open? -> skip
                                          │   hardware, degrade
                                          ├── fleet replica offload
                                          │   (deadline-budgeted retries,
                                          │    quarantine, probes)
                                          └── JVM fallback if needed
                                              (answers never change)

Execution is single-dispatcher by design: the board fleet lives on one
virtual timeline, so one thread pumps ``step()`` while any number of
threads ``submit()``.  Every admitted request produces exactly one
response, and offloaded results are bit-identical to a single-client
:class:`~repro.s2fa.S2FASession` run of the same workload — overload
and faults shed or degrade requests, they never corrupt them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from ..blaze.manager import ACTIVE, LOST, QUARANTINED
from ..blaze.runtime import (
    BlazeRuntime,
    _JVMTaskRunner,
    pattern_results,
)
from ..compiler.driver import compile_kernel
from ..config import ServeConfig
from ..errors import S2FAError, ServeError
from ..hls.device import Device, get_device
from ..obs import MetricsRegistry
from ..obs.span import resolve_tracer
from ..spark.rdd import SparkContext
from .breaker import CircuitBreaker
from .cache import DesignCache, DesignEntry, design_key
from .request import (
    DEADLINE_EXCEEDED,
    ERROR,
    INVALID,
    OK,
    OP_COMPILE,
    OP_OFFLOAD,
    OP_PING,
    OP_STATS,
    OVERLOADED,
    SHUTTING_DOWN,
    ServeRequest,
    ServeResponse,
)
from .scheduler import FairScheduler

#: Fallback estimate of one request's service time before any request
#: has completed (seeds the backpressure retry_after hint).
_DEFAULT_SERVICE_SECONDS = 1e-3

#: Virtual DSE minutes an ``explore=True`` compile request may spend.
EXPLORE_TIME_LIMIT_MINUTES = 20.0


@dataclass
class Fleet:
    """The deployed board replicas (plus fallback state) of one kernel."""

    key: str
    entries: list = field(default_factory=list)
    #: Round-robin cursor over ``entries``.
    cursor: int = 0
    #: Shared JVM fallback runner (built lazily, reused across requests).
    runner: Optional[_JVMTaskRunner] = None

    def boards_alive(self) -> int:
        return sum(1 for e in self.entries if e.state != LOST)


class ServeCore:
    """Multi-tenant serving engine over one virtual board fleet."""

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 device: Optional[Device] = None, tracer=None):
        self.config = config if config is not None else ServeConfig()
        #: the design-target device (compile/DSE and homogeneous boards).
        self.device = device if device is not None \
            else get_device(self.config.device)
        #: per-replica board models of a heterogeneous fleet (empty:
        #: every replica runs on ``device``).
        self.fleet_devices: tuple[Device, ...] = tuple(
            get_device(name) for name in self.config.fleet_devices)
        self.tracer = resolve_tracer(tracer)
        self.metrics: MetricsRegistry = (
            self.tracer.metrics if self.tracer.enabled
            else MetricsRegistry())
        runtime_cfg = self.config.runtime
        self.runtime = BlazeRuntime(
            SparkContext(default_parallelism=1),
            device=self.device,
            fault_plan=runtime_cfg.plan(),
            tracer=self.tracer,
            engine=runtime_cfg.engine)
        self.scheduler = FairScheduler(
            queue_depth=self.config.queue_depth,
            tenant_weights=dict(self.config.tenant_weights))
        self.cache = DesignCache(metrics=self.metrics)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_seconds=self.config.breaker_reset_s,
            now=lambda: self.clock.now)
        self._fleets: dict[str, Fleet] = {}
        self._lock = threading.Lock()
        self._draining = False
        self.started_at = self.clock.now

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------

    @property
    def clock(self):
        """The fleet's virtual clock (all latencies live on it)."""
        return self.runtime.clock

    @property
    def draining(self) -> bool:
        return self._draining

    def queued(self) -> int:
        """Admitted-but-not-started requests across all tenants."""
        with self._lock:
            return self.scheduler.depth()

    def board_stats(self) -> dict:
        """Busy virtual seconds and health per deployed board."""
        boards = {}
        for fleet in self._fleets.values():
            for entry in fleet.entries:
                busy = (entry.board.stats.total_seconds
                        if entry.board is not None else 0.0)
                boards[entry.accel_id] = {
                    "state": entry.state,
                    "busy_seconds": busy,
                    "quarantines": entry.quarantine_count,
                }
        return boards

    def utilization(self) -> float:
        """Mean board utilization: busy seconds / (boards × span)."""
        boards = self.board_stats()
        span = self.clock.now - self.started_at
        if not boards or span <= 0:
            return 0.0
        busy = sum(b["busy_seconds"] for b in boards.values())
        return busy / (span * len(boards))

    # ------------------------------------------------------------------
    # Admission (any thread)
    # ------------------------------------------------------------------

    def submit(self, request: ServeRequest) -> Optional[ServeResponse]:
        """Admit ``request``; ``None`` means queued (a response will
        come out of a later :meth:`step`), anything else is an
        immediate terminal rejection."""
        with self._lock:
            self.metrics.incr("serve.requests")
            if self._draining:
                self.metrics.incr("serve.rejected_shutdown")
                return ServeResponse(
                    request_id=request.request_id, status=SHUTTING_DOWN,
                    error="daemon is draining; retry against the next "
                          "instance", retryable=True)
            if request.deadline_s is None \
                    and self.config.default_deadline_s is not None:
                request.deadline_s = self.config.default_deadline_s
            if request.arrived_at is None:
                request.arrived_at = self.clock.now
            if not self.scheduler.offer(request):
                self.metrics.incr("serve.shed_overload")
                retry_after = self._retry_after_locked()
                return ServeResponse(
                    request_id=request.request_id, status=OVERLOADED,
                    error=f"tenant {request.tenant!r} queue is full "
                          f"({self.config.queue_depth} deep)",
                    retryable=True, retry_after_s=retry_after)
            self.metrics.incr("serve.admitted")
            return None

    def _retry_after_locked(self) -> float:
        """Backpressure hint: expected virtual seconds until a slot
        frees up (queue depth × observed mean service time)."""
        summary = self.metrics.observations.get("serve.service_seconds")
        if summary and summary["count"]:
            mean = summary["sum"] / summary["count"]
        else:
            mean = _DEFAULT_SERVICE_SECONDS
        return max(1, self.scheduler.depth()) * mean

    # ------------------------------------------------------------------
    # Dispatch (the single pump thread)
    # ------------------------------------------------------------------

    def step(self) -> Optional[ServeResponse]:
        """Serve the next queued request; ``None`` when idle."""
        with self._lock:
            request = self.scheduler.next()
        if request is None:
            return None
        response = self._execute(request)
        self.metrics.incr("serve.completed")
        if response.degraded:
            self.metrics.incr("serve.degraded")
        if response.status == DEADLINE_EXCEEDED:
            self.metrics.incr("serve.shed_deadline")
        self.metrics.observe("serve.queue_seconds",
                             response.queue_seconds)
        self.metrics.observe("serve.service_seconds",
                             response.service_seconds)
        self.metrics.observe("serve.latency_seconds",
                             response.latency_seconds)
        return response

    def drain(self) -> list[ServeResponse]:
        """Stop admitting, reject everything queued (retryable).

        The caller (daemon) is responsible for letting the in-flight
        request finish first; after this, :meth:`step` returns ``None``
        and every future :meth:`submit` is rejected.
        """
        with self._lock:
            self._draining = True
            queued = self.scheduler.drain()
        responses = []
        for request in queued:
            self.metrics.incr("serve.rejected_shutdown")
            responses.append(ServeResponse(
                request_id=request.request_id, status=SHUTTING_DOWN,
                error="daemon drained before this request started; "
                      "safe to retry", retryable=True))
        return responses

    def state_snapshot(self) -> dict:
        """Everything worth flushing at drain time (JSON-serializable)."""
        return {
            "metrics": self.metrics.snapshot(),
            "boards": self.board_stats(),
            "breaker": self.breaker.snapshot(),
            "cache": self.cache.stats(),
            "tenants": {t: self.scheduler.depth(t)
                        for t in self.scheduler.tenants()},
            "virtual_now": self.clock.now,
            "utilization": self.utilization(),
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(self, request: ServeRequest) -> ServeResponse:
        dispatched_at = self.clock.now
        queue_seconds = dispatched_at - request.arrived_at
        deadline_at = request.deadline_at
        if deadline_at is not None and dispatched_at >= deadline_at:
            # Queueing ate the whole budget: shed before doing work.
            return ServeResponse(
                request_id=request.request_id, status=DEADLINE_EXCEEDED,
                error=f"deadline ({request.deadline_s:g}s) expired after "
                      f"{queue_seconds:g}s in queue",
                queue_seconds=queue_seconds)
        try:
            with self.tracer.span("serve.request", op=request.op,
                                  tenant=request.tenant):
                response = self._dispatch_op(request, deadline_at)
        except ServeError as exc:
            response = ServeResponse(
                request_id=request.request_id, status=exc.status,
                error=str(exc), retryable=exc.retryable)
        except S2FAError as exc:
            response = ServeResponse(
                request_id=request.request_id, status=ERROR,
                error=f"{type(exc).__name__}: {exc}")
        except Exception as exc:            # noqa: BLE001 — the dispatch
            # loop must survive any single request's failure.
            response = ServeResponse(
                request_id=request.request_id, status=ERROR,
                error=f"internal: {type(exc).__name__}: {exc}")
        response.queue_seconds = queue_seconds
        response.service_seconds = self.clock.now - dispatched_at
        return response

    def _dispatch_op(self, request: ServeRequest,
                     deadline_at: Optional[float]) -> ServeResponse:
        if request.op == OP_PING:
            return ServeResponse(
                request_id=request.request_id, status=OK,
                result={"virtual_now": self.clock.now,
                        "queued": self.scheduler.depth()})
        if request.op == OP_STATS:
            return ServeResponse(request_id=request.request_id,
                                 status=OK,
                                 result=self.state_snapshot())
        if request.op == OP_COMPILE:
            return self._do_compile(request)
        if request.op == OP_OFFLOAD:
            return self._do_offload(request, deadline_at)
        raise ServeError(f"unknown op {request.op!r}", status=INVALID)

    # -- design resolution ---------------------------------------------

    def _resolve(self, request: ServeRequest):
        """(spec, source, layout, pattern, batch_size) for the request."""
        from ..s2fa import S2FASession

        if not request.app:
            raise ServeError("request needs an app name or Scala source",
                             status=INVALID)
        spec = S2FASession.resolve(request.app)
        if spec is not None:
            layout = spec.functional_layout or spec.layout_config
            return spec, spec.scala_source, layout, spec.pattern, \
                spec.batch_size
        return (None, request.app, None, request.pattern or "map",
                request.batch_size or 1024)

    def _design(self, request: ServeRequest) -> tuple[DesignEntry, bool]:
        """The (cached) design for the request; (entry, was_hit)."""
        spec, source, layout, pattern, batch_size = self._resolve(request)
        key = design_key(
            source, layout_repr=repr(layout), pattern=pattern,
            batch_size=batch_size, device_name=self.device.name)
        if request.explore:
            key += ":explored"
        was_cached = self.cache.peek(key) is not None

        def build() -> DesignEntry:
            from ..dse.cache import kernel_digest

            if request.explore:
                compiled, config = self._explore_design(
                    request, layout, pattern, batch_size)
            else:
                compiled = compile_kernel(
                    source, layout_config=layout, pattern=pattern,
                    batch_size=batch_size, tracer=self.tracer)
                config = (spec.manual_config(compiled)
                          if spec is not None else None)
            return DesignEntry(
                key=key, compiled=compiled, config=config,
                kernel_digest=kernel_digest(compiled.kernel, self.device))

        return self.cache.get_or_build(key, build), was_cached

    def _explore_design(self, request: ServeRequest, layout, pattern,
                        batch_size):
        """Full compile + DSE through the session facade (slow path —
        the design cache makes every later tenant's request free)."""
        from ..config import ExploreConfig
        from ..s2fa import S2FASession

        session = S2FASession(
            explore=ExploreConfig(
                time_limit_minutes=EXPLORE_TIME_LIMIT_MINUTES),
            device=self.device, tracer=self.tracer)
        build = session.explore(
            request.app, layout_config=layout, pattern=pattern,
            batch_size=batch_size)
        return build.compiled, build.config

    # -- compile --------------------------------------------------------

    def _do_compile(self, request: ServeRequest) -> ServeResponse:
        entry, was_hit = self._design(request)
        result = {
            "accel_id": entry.compiled.accel_id,
            "kernel_digest": entry.kernel_digest,
            "design": (entry.config.describe()
                       if entry.config is not None else None),
            "explored": request.explore,
        }
        return ServeResponse(request_id=request.request_id, status=OK,
                             result=result, cache_hit=was_hit)

    # -- offload --------------------------------------------------------

    def _tasks_for(self, request: ServeRequest, spec) -> list:
        if request.tasks is not None:
            return request.tasks
        if request.n_tasks is None:
            raise ServeError(
                "offload needs a task payload (in-process) or n_tasks "
                "(server-side workload)", status=INVALID)
        if spec is None:
            raise ServeError(
                "server-side workloads need a built-in app (raw Scala "
                "source has no workload generator)", status=INVALID)
        return spec.functional_tasks_for(request.n_tasks,
                                         seed=request.data_seed)

    def _fleet(self, entry: DesignEntry) -> Fleet:
        fleet = self._fleets.get(entry.key)
        if fleet is not None:
            return fleet
        fleet = Fleet(key=entry.key)
        base_id = entry.compiled.accel_id
        with self.tracer.span("serve.deploy_fleet", accel=base_id,
                              replicas=self.config.replicas,
                              devices=len(self.fleet_devices) or 1):
            for i in range(self.config.replicas):
                board = self._board_device(i)
                fleet.entries.append(self.runtime.manager.register(
                    entry.compiled, entry.config,
                    accel_id=f"{base_id}#{entry.key[:8]}#{i}",
                    device=board,
                    quarantine_scale=self._quarantine_scale(board)))
        self._fleets[entry.key] = fleet
        self.metrics.incr("serve.boards_deployed",
                          len(fleet.entries))
        return fleet

    def _board_device(self, i: int) -> Optional[Device]:
        """The device model replica ``i`` runs on (``None`` = the
        manager default, i.e. a homogeneous fleet)."""
        if not self.fleet_devices:
            return None
        return self.fleet_devices[i % len(self.fleet_devices)]

    def _quarantine_scale(self, board: Optional[Device]) -> float:
        """Per-type quarantine stretch: cheaper boards (relative to the
        design-target device) sit out longer after faults — they are
        assumed to recover more slowly.  1.0 for homogeneous fleets, so
        existing timelines are untouched."""
        if board is None or board.unit_price >= self.device.unit_price:
            return 1.0
        return self.device.unit_price / board.unit_price

    def _pick_replica(self, fleet: Fleet):
        """Next usable board: ACTIVE first, then a quarantined board
        whose re-admission time has come (the probe).  ``None`` when no
        board can usefully take the batch now.

        Placement is device-aware in a heterogeneous fleet: candidates
        are visited fastest board first (lowest estimated seconds per
        batch).  The sort is *stable* over the round-robin rotation, so
        a homogeneous fleet — where every board estimates identically —
        degenerates to the original pure round-robin, and placement can
        only ever move work between bit-identical executions.
        """
        n = len(fleet.entries)
        order = [fleet.entries[(fleet.cursor + i) % n] for i in range(n)]
        order.sort(key=lambda e: (e.hls.seconds_per_batch
                                  if e.hls is not None else float("inf")))
        pick = None
        for entry in order:
            if entry.board is None or entry.state == LOST:
                continue
            if entry.state == ACTIVE:
                pick = entry
                break
            if entry.state == QUARANTINED \
                    and self.clock.now >= entry.quarantined_until:
                pick = pick or entry
        if pick is not None:
            fleet.cursor = (fleet.entries.index(pick) + 1) % n
        return pick

    def _do_offload(self, request: ServeRequest,
                    deadline_at: Optional[float]) -> ServeResponse:
        entry, was_hit = self._design(request)
        compiled = entry.compiled
        if compiled.pattern not in ("map", "filter"):
            raise ServeError(
                f"serve offload supports map/filter kernels, "
                f"{compiled.accel_id!r} is {compiled.pattern!r}",
                status=INVALID)
        spec, _, _, _, _ = self._resolve(request)
        tasks = self._tasks_for(request, spec)
        if not tasks:
            return ServeResponse(request_id=request.request_id,
                                 status=OK, result=[],
                                 cache_hit=was_hit)
        fleet = self._fleet(entry)

        outputs = None
        hardware_possible = (entry.config is not None
                             and fleet.boards_alive() > 0)
        if hardware_possible and not self.breaker.allow(entry.key):
            self.metrics.incr("serve.breaker_skips")
            hardware_possible = False
        if hardware_possible:
            replica = self._pick_replica(fleet)
            if replica is not None:
                outputs = self.runtime.offload_batch(
                    replica, tasks, deadline_at=deadline_at)
                if outputs is not None:
                    self.breaker.record_success(entry.key)
                elif replica.state != ACTIVE:
                    # The board (not the request's deadline budget)
                    # caused the fallback: feed the breaker.
                    self.breaker.record_failure(entry.key)
        # Degraded = hardware was deployed for this kernel but this
        # request completed on the JVM path (breaker open, fleet dead,
        # quarantines, faults, or an exhausted deadline budget).
        degraded = entry.config is not None and outputs is None

        if outputs is None:
            # Execute on the JVM interpreter (bit-identical, software).
            if fleet.runner is None:
                fleet.runner = _JVMTaskRunner(compiled,
                                              engine=self.runtime.engine)
            outputs = self.runtime.jvm_fallback(
                fleet.runner, tasks, compiled.accel_id,
                span="serve.jvm_fallback")
        results = pattern_results(compiled.pattern, tasks, outputs)
        return ServeResponse(
            request_id=request.request_id, status=OK, result=results,
            cache_hit=was_hit, degraded=degraded,
            extra={"tasks": len(tasks)})
