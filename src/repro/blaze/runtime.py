"""The Blaze runtime: RDD wrapping and resilient accelerator offload.

Usage mirrors the paper's snippet (Code 1)::

    blaze = BlazeRuntime(sc)
    blaze.register(compiled_kernel, best_config)   # deploy bitstream
    wrapped = blaze.wrap(pairs)                    # blaze.wrap(pairs)
    matching = wrapped.map_acc("SW_kernel")        # .map(new SW())
    results = matching.collect()

``map_acc`` offloads each partition as one accelerator batch through
:meth:`BlazeRuntime.offload_batch`, which runs every batch under a
deadline with bounded retries and exponential backoff (on a *virtual*
clock, so tests are instant), verifies the CRC-framed result buffers,
quarantines boards that exhaust their retries (with periodic
re-admission probes), and falls back transparently to the JVM bytecode
interpreter when the hardware cannot deliver — exactly like Blaze's
software path.  The invariant: collected results are bit-identical to
the pure-JVM run under any fault schedule; only timing and
:class:`BlazeMetrics` change.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Optional

from ..compiler.driver import CompiledKernel
from ..engines import make_jvm_interpreter, resolve_engine
from ..errors import (
    BlazeError,
    CorruptResultError,
    DeviceFault,
    DeviceLostError,
    DeviceTimeout,
)
from ..fpga.faults import FaultPlan
from ..hls.device import Device, VU9P
from ..jvm.cost import CostModel
from ..merlin.config import DesignConfig
from ..obs.span import NULL_TRACER
from ..spark.rdd import RDD, SparkContext
from .jvm_bridge import from_jvm, to_jvm
from .manager import (
    LOST,
    QUARANTINED,
    AcceleratorManager,
    RegisteredAccelerator,
)
from .serialization import verify_outputs


class VirtualClock:
    """Monotonic virtual seconds: deadlines, backoff, and quarantine
    expiry all live on this clock, so fault handling is deterministic
    and tests never sleep.

    ``advance`` is a locked read-modify-write: two threads advancing the
    same clock never lose time (reads of ``now`` stay plain attribute
    reads — a float load is atomic in CPython).
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._lock = threading.Lock()

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise BlazeError(f"cannot advance the clock by {seconds}")
        with self._lock:
            self.now += seconds
            return self.now


@dataclass(frozen=True)
class OffloadPolicy:
    """Knobs of the resilient offload path (virtual seconds).

    The one definition of the retry, deadline and quarantine constants.
    No run configuration changes them; a test that needs other values
    passes its own instance as ``BlazeRuntime(policy=...)``.
    """

    #: Invocation attempts per batch before the board is quarantined.
    max_attempts: int = 3
    #: Host deadline per batch; a hung invocation is cut here.
    batch_deadline_seconds: float = 0.05
    #: Backoff before retry ``i`` is ``base * factor**(i-1)``.
    backoff_base_seconds: float = 1e-4
    backoff_factor: float = 2.0
    #: Quarantine ``q`` lasts ``base * factor**q`` before a probe.
    quarantine_base_seconds: float = 1e-2
    quarantine_factor: float = 2.0


@dataclass
class BlazeMetrics:
    """Accumulated task and failure accounting across the runtime."""

    accel_tasks: int = 0
    accel_seconds: float = 0.0
    fallback_tasks: int = 0
    fallback_seconds: float = 0.0
    #: failure accounting ------------------------------------------------
    retries: int = 0
    transient_faults: int = 0
    timeouts: int = 0
    corrupt_batches: int = 0
    devices_lost: int = 0
    quarantines: int = 0
    probes: int = 0
    readmissions: int = 0
    #: batches/tasks that fell back because the hardware faulted (vs
    #: ``no_hardware_batches``: nothing was ever deployed for the id).
    fault_fallback_batches: int = 0
    fault_fallback_tasks: int = 0
    no_hardware_batches: int = 0
    #: virtual seconds burnt in failed attempts, deadlines, and backoff.
    wasted_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.accel_seconds + self.fallback_seconds

    def as_dict(self) -> dict:
        """Stable dict view (used by reports and determinism checks)."""
        out = dataclasses.asdict(self)
        out["total_seconds"] = self.total_seconds
        return out


class BlazeRuntime:
    """Front door of the accelerator service."""

    def __init__(self, context: SparkContext,
                 device: Device = VU9P,
                 fault_plan: Optional[FaultPlan] = None,
                 policy: Optional[OffloadPolicy] = None,
                 tracer=NULL_TRACER,
                 engine: Optional[str] = None):
        self.engine = resolve_engine(engine)
        self.context = context
        self.manager = AcceleratorManager(device, fault_plan=fault_plan,
                                          engine=self.engine)
        self.policy = policy or OffloadPolicy()
        self.metrics = BlazeMetrics()
        self.clock = VirtualClock()
        self.tracer = tracer
        #: Serializes offload attempts and fallback accounting: board
        #: health transitions (quarantine/probe/readmit/lost), clock
        #: charges, and :class:`BlazeMetrics` updates are atomic per
        #: batch, so concurrent callers can share one runtime (the
        #: serve daemon does) without interleaving ``quarantined_until``
        #: updates inconsistently.
        self._lock = threading.RLock()

    def register(self, compiled: CompiledKernel,
                 config: Optional[DesignConfig] = None
                 ) -> RegisteredAccelerator:
        with self.tracer.span("blaze.register",
                              accel=compiled.accel_id):
            return self.manager.register(compiled, config)

    def wrap(self, rdd: RDD) -> "ShellRDD":
        return ShellRDD(self, rdd)

    # -- resilient offload ------------------------------------------------

    def offload_batch(self, entry: RegisteredAccelerator, tasks: list,
                      n_results: Optional[int] = None, *,
                      deadline_at: Optional[float] = None
                      ) -> Optional[list]:
        """Run one batch on ``entry``'s board; ``None`` means "fall back".

        Implements the full resilience discipline: quarantine gating and
        probes, bounded retries with exponential backoff, deadline-cut
        hangs, CRC verification of the framed result buffers, and
        permanent-loss handling.  All time is charged to the runtime's
        virtual clock.

        ``deadline_at`` is an absolute virtual-time budget: each attempt
        deadline is capped to the remaining budget and the retry loop
        gives up (falling back, without quarantining a healthy board)
        once the budget is spent.  The serve layer uses it to propagate
        per-request deadlines into the retry/backoff discipline.

        The whole batch runs under the runtime lock, so concurrent
        callers see atomic health transitions and consistent metrics.

        Each call records one ``blaze.offload`` span carrying the batch
        failure accounting (retries, faults, timeouts, corrupt frames)
        and its outcome, so a trace shows exactly where hardware time
        and fallbacks went.
        """
        with self._lock, \
                self.tracer.span("blaze.offload", accel=entry.accel_id,
                                 tasks=len(tasks)) as span:
            before = self.clock.now
            results = self._offload_attempts(entry, tasks, n_results,
                                             span, deadline_at)
            span.set(vclock_seconds=self.clock.now - before)
            if results is not None:
                span.set(outcome="accelerated")
            self.tracer.metrics.incr("blaze.offload_batches")
            return results

    def _offload_attempts(self, entry: RegisteredAccelerator,
                          tasks: list, n_results: Optional[int],
                          span, deadline_at: Optional[float]
                          ) -> Optional[list]:
        metrics, policy = self.metrics, self.policy
        if entry.board is None:
            metrics.no_hardware_batches += 1
            span.set(outcome="no_hardware")
            return None
        if entry.state == LOST:
            self._note_fault_fallback(len(tasks))
            span.set(outcome="board_lost")
            return None
        probing = False
        if entry.state == QUARANTINED:
            if self.clock.now < entry.quarantined_until:
                self._note_fault_fallback(len(tasks))
                span.set(outcome="quarantined")
                return None
            probing = True
            metrics.probes += 1
            span.set(probe=True)
        n_out = len(tasks) if n_results is None else n_results
        for attempt in range(policy.max_attempts):
            span.set(attempts=attempt + 1)
            if attempt:
                metrics.retries += 1
                span.add("retries")
                self.tracer.metrics.incr("blaze.retries")
                backoff = (policy.backoff_base_seconds
                           * policy.backoff_factor ** (attempt - 1))
                self.clock.advance(backoff)
                metrics.wasted_seconds += backoff
            attempt_deadline = policy.batch_deadline_seconds
            if deadline_at is not None:
                remaining = deadline_at - self.clock.now
                if remaining <= 0:
                    # Budget exhausted: fall back without quarantining —
                    # the board may be healthy; the *request* ran out of
                    # time (queueing, earlier retries, backoff).
                    self._note_fault_fallback(len(tasks))
                    span.set(outcome="deadline_budget_exhausted")
                    return None
                attempt_deadline = min(attempt_deadline, remaining)
            buffers = entry.serializer(tasks)
            try:
                seconds = entry.board.run(
                    buffers, len(tasks),
                    deadline_s=attempt_deadline)
                verify_outputs(buffers, entry.output_names)
            except DeviceLostError as exc:
                self._charge_waste(exc.seconds)
                metrics.devices_lost += 1
                entry.mark_lost()
                self._note_fault_fallback(len(tasks))
                span.set(outcome="board_lost").add("devices_lost")
                return None
            except DeviceTimeout as exc:
                self._charge_waste(exc.seconds)
                metrics.timeouts += 1
                span.add("timeouts")
            except DeviceFault as exc:
                self._charge_waste(exc.seconds)
                metrics.transient_faults += 1
                span.add("transient_faults")
            except CorruptResultError:
                # The batch ran to completion before failing the CRC
                # check, so its nominal time was fully spent.
                self._charge_waste(seconds)
                metrics.corrupt_batches += 1
                span.add("corrupt_batches")
            else:
                self.clock.advance(seconds)
                metrics.accel_tasks += len(tasks)
                metrics.accel_seconds += seconds
                if probing:
                    entry.readmit()
                    metrics.readmissions += 1
                    span.set(readmitted=True)
                return entry.deserializer(buffers, n_out)
        duration = (policy.quarantine_base_seconds
                    * policy.quarantine_factor ** entry.quarantine_count
                    * entry.quarantine_scale)
        entry.quarantine(self.clock.now + duration)
        metrics.quarantines += 1
        self.tracer.metrics.incr("blaze.quarantines")
        self._note_fault_fallback(len(tasks))
        span.set(outcome="quarantined_after_retries")
        return None

    def record_fallback(self, n_tasks: int, seconds: float) -> None:
        """Account one JVM-fallback batch (time also drives the clock)."""
        with self._lock:
            self.metrics.fallback_tasks += n_tasks
            self.metrics.fallback_seconds += seconds
            self.clock.advance(seconds)

    def jvm_fallback(self, runner: "_JVMTaskRunner", tasks: list,
                     accel: str, span: str = "blaze.jvm_fallback") -> list:
        """Software fallback: run the batch's original Scala on the JVM
        ``runner`` and account it; returns one kernel output per task
        (see :func:`pattern_results`)."""
        before = runner.seconds
        with self.tracer.span(span, accel=accel, tasks=len(tasks)) as sp:
            outputs = [runner.call(task) for task in tasks]
            sp.set(vclock_seconds=runner.seconds - before)
        self.record_fallback(len(tasks), runner.seconds - before)
        return outputs

    def _charge_waste(self, seconds: float) -> None:
        self.clock.advance(seconds)
        self.metrics.wasted_seconds += seconds

    def _note_fault_fallback(self, n_tasks: int) -> None:
        self.metrics.fault_fallback_batches += 1
        self.metrics.fault_fallback_tasks += n_tasks


#: Sentinel distinguishing "no fold seed" from an explicit ``None`` seed.
_NO_SEED = object()


class ShellRDD:
    """A wrapped RDD whose transformations may offload to accelerators."""

    def __init__(self, runtime: BlazeRuntime, rdd: RDD):
        self.runtime = runtime
        self.rdd = rdd

    def map_acc(self, accel_id: str) -> "AccRDD":
        """Offloadable map (Code 1, line 3)."""
        entry = self.runtime.manager.require(accel_id)
        if entry.compiled.pattern != "map":
            raise BlazeError(
                f"accelerator {accel_id!r} implements "
                f"{entry.compiled.pattern!r}, not map")
        return AccRDD(self.runtime, self.rdd, entry)

    def filter_acc(self, accel_id: str) -> "FilterAccRDD":
        """Offloadable filter: the accelerator computes keep-flags."""
        entry = self.runtime.manager.require(accel_id)
        if entry.compiled.pattern != "filter":
            raise BlazeError(
                f"accelerator {accel_id!r} implements "
                f"{entry.compiled.pattern!r}, not filter")
        return FilterAccRDD(self.runtime, self.rdd, entry)

    def reduce_acc(self, accel_id: str, zero=_NO_SEED):
        """Offloadable reduce: one scalar result for the whole RDD.

        Follows Spark's contract: ``reduce`` on an empty RDD is an
        error, while a ``zero`` seed makes the fold total (``fold``):
        an empty RDD returns ``zero``, and a non-empty one folds
        ``zero`` in first.  ``map_acc``/``filter_acc`` return ``[]``
        for empty input for the same reason: empty in, empty out.
        """
        entry = self.runtime.manager.require(accel_id)
        if entry.compiled.pattern != "reduce":
            raise BlazeError(
                f"accelerator {accel_id!r} implements "
                f"{entry.compiled.pattern!r}, not reduce")
        values = self.rdd.collect()
        if zero is not _NO_SEED:
            values = [zero] + values
        if not values:
            raise BlazeError(
                "reduce_acc over an empty RDD: pass zero= to seed the "
                "fold (map_acc/filter_acc return [] for empty input)")
        if len(values) == 1:
            # Spark returns the sole element without calling the
            # combiner; both offload paths must agree.
            return values[0]
        results = self.runtime.offload_batch(entry, values, n_results=1)
        if results is not None:
            # Reduce kernels leave the folded value in out_1[0].
            return results[0]
        runner = _JVMTaskRunner(entry.compiled, engine=self.runtime.engine)
        with self.runtime.tracer.span(
                "blaze.jvm_fallback", accel=entry.accel_id,
                tasks=len(values)) as span:
            accumulator = values[0]
            for value in values[1:]:
                accumulator = runner.call2(accumulator, value)
            span.set(vclock_seconds=runner.seconds)
        self.runtime.record_fallback(len(values), runner.seconds)
        return accumulator


def pattern_results(pattern: str, tasks: list, outputs: list) -> list:
    """Per-task kernel outputs (from a board or the JVM alike) to the
    transformation's results: a filter keeps the tasks whose flag is
    set — the flags themselves never surface — a map returns the
    outputs."""
    if pattern == "filter":
        return [task for task, keep in zip(tasks, outputs) if keep]
    return outputs


class AccRDD(RDD):
    """RDD whose map is computed by the accelerator service, or by the
    JVM when no board can take the batch."""

    _label = "acc"

    def __init__(self, runtime: BlazeRuntime, parent: RDD,
                 entry: RegisteredAccelerator):
        super().__init__(parent.context, parent.num_partitions,
                         f"{parent.name}.{self._label}[{entry.accel_id}]")
        self.runtime = runtime
        self.parent = parent
        self.entry = entry
        self._runner: Optional[_JVMTaskRunner] = None

    @property
    def _jvm_runner(self) -> "_JVMTaskRunner":
        """The fallback runner, built once and shared by all partitions
        (class and I/O types resolve once, not per ``compute``)."""
        if self._runner is None:
            self._runner = _JVMTaskRunner(self.entry.compiled,
                                          engine=self.runtime.engine)
        return self._runner

    def compute(self, partition: int) -> list:
        tasks = self.parent.partition_data(partition)
        if not tasks:
            return []
        outputs = self.runtime.offload_batch(self.entry, tasks)
        if outputs is None:
            outputs = self.runtime.jvm_fallback(
                self._jvm_runner, tasks, self.entry.accel_id)
        return pattern_results(self.entry.compiled.pattern, tasks, outputs)


#: Spark executor overhead per element: iterator chaining, closure
#: dispatch, boxing/unboxing of primitives on the JVM.  The paper's
#: baseline is a full Spark 1.5 executor, not a tight JIT loop.
SPARK_TASK_OVERHEAD_NS = 180.0
SPARK_EXECUTOR_SLOWDOWN = 2.0


class FilterAccRDD(AccRDD):
    """RDD whose filter predicate is computed by the accelerator.

    The device returns one keep-flag per task; the host keeps the original
    elements whose flag is non-zero.
    """

    _label = "accfilter"


class _JVMTaskRunner:
    """Executes kernel tasks on the bytecode interpreter (fallback)."""

    def __init__(self, compiled: CompiledKernel,
                 engine: Optional[str] = None):
        self.compiled = compiled
        self.cost = CostModel()
        self.interp = make_jvm_interpreter(
            compiled.registry, cost_model=self.cost, engine=engine)
        self.instance = compiled.instance
        self.tasks_run = 0
        cls = next(c for c in compiled.program.classes
                   if c.name == compiled.name)
        if compiled.pattern == "reduce":
            call = cls.method("call")
            self.input_type = call.params[0].declared
            self.output_type = call.ret
        else:
            from ..compiler.driver import _io_types
            self.input_type, self.output_type = _io_types(cls)
        self.records = compiled.layout.records

    @property
    def seconds(self) -> float:
        return (self.cost.total_seconds * SPARK_EXECUTOR_SLOWDOWN
                + self.tasks_run * SPARK_TASK_OVERHEAD_NS * 1e-9)

    def call(self, task):
        self.tasks_run += 1
        jvm_in = to_jvm(task, self.input_type, self.interp, self.records)
        jvm_out = self.interp.invoke(
            self.compiled.name, "call", [self.instance, jvm_in])
        return from_jvm(jvm_out, self.output_type, self.records)

    def call2(self, a, b):
        self.tasks_run += 1
        jvm_a = to_jvm(a, self.input_type, self.interp, self.records)
        jvm_b = to_jvm(b, self.input_type, self.interp, self.records)
        jvm_out = self.interp.invoke(
            self.compiled.name, "call", [self.instance, jvm_a, jvm_b])
        return from_jvm(jvm_out, self.output_type, self.records)
