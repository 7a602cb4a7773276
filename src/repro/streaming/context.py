"""The micro-batch driver: scheduling, exactly-once, backpressure.

:class:`StreamContext` runs a DStream chain over the Blaze runtime's
:class:`~repro.blaze.runtime.VirtualClock`, one micro-batch at a time:

1. **admit** — batch ``n`` is due at ``t0 + n * interval``; when the
   pipeline is keeping up the clock idles forward to the due time
   (bounded admission), when it is lagging the wait is skipped;
2. **compute** — the chain evaluates batch ``n`` (accelerated stages
   offload through ``offload_batch`` with its full retry/quarantine/
   fallback discipline, charging the same clock);
3. **emit** — the output is partitioned and appended to the idempotent
   sink, then made durable (``flush_batch``);
4. **checkpoint** — source offset, per-operator state, and the sink
   sequence counter are saved atomically.

Content-time separation
    Batch *content* is a pure function of the source offset range
    ``[n*B, (n+1)*B)`` — never of timing, fault schedules, or
    backpressure.  Faults and overload change *when* a batch completes
    and *where* it computes (board vs JVM fallback, which is
    bit-identical by the PR 2 invariant), but never *what* it emits.
    That separation is what makes the recovery guarantee checkable:
    sink bytes after any crash/resume equal the fault-free run's bytes.

Backpressure
    When the completion of batch ``n`` slips more than
    ``max_lag_intervals`` intervals past batch ``n+1``'s due time the
    context emits a typed ``LAGGING`` signal and stops idling to due
    times: each next batch is admitted as soon as the last one
    completes, one batch at a time — bounded lag instead of an
    unbounded queue.  When the stream fully catches up it emits ``OK``
    and records the recovery time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..durable import ChaosKill
from ..errors import StreamError, StreamInterrupted
from ..obs import NULL_TRACER
from . import codec
from .ops import DStream, SourceStream
from .source import SeededSource
from .state import StreamCheckpointStore

#: Backpressure states of the typed signal.
BACKPRESSURE_OK = "OK"
BACKPRESSURE_LAGGING = "LAGGING"


@dataclass(frozen=True)
class BackpressureSignal:
    """One admission-state transition, on the virtual clock."""

    state: str              # BACKPRESSURE_OK | BACKPRESSURE_LAGGING
    batch_id: int           # batch whose completion triggered it
    lag_seconds: float      # completion slip past the next due time


@dataclass
class StreamOutcome:
    """Everything one ``StreamContext.run`` produced."""

    app: str
    batches: int                    # micro-batches completed this run
    total_batches: int
    records_in: int                 # source records admitted this run
    rows_emitted: int               # sink rows written this run
    duplicates_skipped: int         # replayed rows the sink refused
    seq: int                        # final sink sequence number
    elapsed_seconds: float          # virtual time from start to finish
    batch_latencies: list = field(default_factory=list)
    signals: list = field(default_factory=list)
    lagging_batches: int = 0
    recovery_seconds: list = field(default_factory=list)
    metrics: object = None          # BlazeMetrics of the runtime
    checkpoint_path: Optional[str] = None
    resumed: bool = False
    sink: object = None             # the sink the run emitted into

    @property
    def throughput_rps(self) -> float:
        """Sustained source records per virtual second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.records_in / self.elapsed_seconds


def _partition_slices(data: list, num_partitions: int) -> list[list]:
    """The exact slicing ``SparkContext.parallelize`` uses."""
    n = max(1, min(num_partitions, max(1, len(data))))
    base, extra = divmod(len(data), n)
    slices, start = [], 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        slices.append(data[start:start + size])
        start += size
    return slices


class StreamContext:
    """Owns the dataflow graph and drives the micro-batch loop."""

    def __init__(self, runtime, config, *, tracer=NULL_TRACER):
        self.runtime = runtime
        self.config = config
        self.tracer = tracer
        self.sc = runtime.context
        self.partitions = getattr(runtime.context,
                                  "default_parallelism", 4)
        self._nodes: list[DStream] = []
        self._stop = False
        self._chaos = ChaosKill(self.request_stop)

    # -- graph construction ----------------------------------------------

    def _register_node(self, node: DStream) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    def source(self, generator, *, seed: int = 0,
               total: Optional[int] = None,
               chunk_records: int = 64) -> SourceStream:
        """A seeded, offset-addressable source stream."""
        return SourceStream(self, SeededSource(
            generator, seed=seed, total=total,
            chunk_records=chunk_records))

    # -- helpers the operator nodes use ----------------------------------

    def rdd(self, records: list):
        return self.sc.parallelize(records, self.partitions)

    def shell(self, records: list):
        return self.runtime.wrap(self.rdd(records))

    def shell_check(self, accel_id: str, pattern: str) -> None:
        """Fail at graph-construction time, not mid-stream."""
        entry = self.runtime.manager.require(accel_id)
        if entry.compiled.pattern != pattern:
            raise StreamError(
                f"accelerator {accel_id!r} implements "
                f"{entry.compiled.pattern!r}, not {pattern!r}")

    # -- control ---------------------------------------------------------

    def request_stop(self) -> None:
        """Finish the current micro-batch, checkpoint, then stop."""
        self._stop = True

    # -- checkpointing ---------------------------------------------------

    def _identity(self, name: str) -> dict:
        cfg = self.config
        rcfg = cfg.runtime
        return {
            "app": name,
            "data_seed": cfg.data_seed,
            "batch_records": cfg.batch_records,
            "interval_seconds": cfg.interval_seconds,
            "total_records": cfg.total_records,
            "max_batches": cfg.max_batches,
            "partitions": self.partitions,
            "fault_plan": rcfg.fault_plan,
            "fault_seed": rcfg.fault_seed,
            "engine": self.runtime.engine,
            "pipeline": [type(node).__name__ for node in self._nodes],
        }

    def _snapshot_operators(self) -> dict:
        out = {}
        for node in self._nodes:
            state = node.state_snapshot()
            if state is not None:
                out[str(node.node_id)] = codec.encode(state)
        return out

    def _restore_operators(self, encoded: dict) -> None:
        for key, state in encoded.items():
            try:
                node = self._nodes[int(key)]
            except (ValueError, IndexError):
                raise StreamError(
                    f"checkpoint names unknown operator node {key!r}") \
                    from None
            node.state_restore(codec.decode(state))

    # -- the loop --------------------------------------------------------

    def run(self, stream: DStream, sink, *,
            name: str = "stream") -> StreamOutcome:
        """Drive the chain ending at ``stream`` to completion."""
        cfg = self.config
        total_batches = self._total_batches()
        store = (StreamCheckpointStore(cfg.checkpoint_dir)
                 if cfg.checkpoint_dir else None)
        identity = self._identity(name)

        start_batch, seq, resumed = 0, 0, False
        if cfg.resume and store is not None and store.has(name):
            payload = store.load(name, identity=identity)
            start_batch = int(payload["next_batch"])
            seq = int(payload["seq"])
            self._restore_operators(payload["operators"])
            resumed = True

        clock = self.runtime.clock
        metrics = self.tracer.metrics
        interval = cfg.interval_seconds
        t0 = clock.now
        outcome = StreamOutcome(
            app=name, batches=0, total_batches=total_batches,
            records_in=0, rows_emitted=0, duplicates_skipped=0,
            seq=seq, elapsed_seconds=0.0, resumed=resumed,
            metrics=self.runtime.metrics)

        bp_state = BACKPRESSURE_OK
        lagging_since = 0.0
        checkpoint_path = None
        threshold = cfg.max_lag_intervals * interval

        with self.tracer.span("stream.run", app=name,
                              batches=total_batches - start_batch,
                              resumed=resumed):
            for n in range(start_batch, total_batches):
                due = t0 + (n - start_batch) * interval
                if bp_state == BACKPRESSURE_OK and clock.now < due:
                    clock.advance(due - clock.now)
                before = clock.now

                with self.tracer.span("stream.batch", batch=n):
                    out = stream.evaluate(n)
                    for part, chunk in enumerate(
                            _partition_slices(out, self.partitions)):
                        if sink.emit(n, part, seq, chunk):
                            outcome.rows_emitted += 1
                        else:
                            outcome.duplicates_skipped += 1
                        seq += 1
                    sink.flush_batch()
                self._chaos.fire("mid", n)

                if store is not None:
                    checkpoint_path = store.save(name, {
                        "identity": identity,
                        "next_batch": n + 1,
                        "seq": seq,
                        "operators": self._snapshot_operators(),
                    })
                    metrics.incr("stream.checkpoint.writes")
                self._chaos.fire("boundary", n)
                self._chaos.fire("stop", n)

                # -- accounting & backpressure -------------------------
                latency = clock.now - before
                outcome.batches += 1
                outcome.seq = seq
                outcome.records_in += self._batch_size(n)
                outcome.batch_latencies.append(latency)
                metrics.incr("stream.batches")
                metrics.incr("stream.records_in", self._batch_size(n))
                metrics.observe("stream.batch_seconds", latency)

                lag = max(0.0, clock.now - (due + interval))
                metrics.gauge("stream.lag_seconds", lag)
                if bp_state == BACKPRESSURE_OK and lag > threshold:
                    bp_state = BACKPRESSURE_LAGGING
                    lagging_since = clock.now
                    outcome.signals.append(BackpressureSignal(
                        state=BACKPRESSURE_LAGGING, batch_id=n,
                        lag_seconds=lag))
                elif bp_state == BACKPRESSURE_LAGGING and lag == 0.0:
                    bp_state = BACKPRESSURE_OK
                    recovery = clock.now - lagging_since
                    outcome.recovery_seconds.append(recovery)
                    outcome.signals.append(BackpressureSignal(
                        state=BACKPRESSURE_OK, batch_id=n,
                        lag_seconds=0.0))
                    metrics.observe("stream.recovery_seconds", recovery)
                if bp_state == BACKPRESSURE_LAGGING:
                    outcome.lagging_batches += 1
                    metrics.incr("stream.lagging_batches")

                if self._stop and n + 1 < total_batches:
                    outcome.checkpoint_path = (
                        str(checkpoint_path)
                        if checkpoint_path is not None else None)
                    where = (f"; checkpoint at {checkpoint_path} "
                             f"(resume with --resume)"
                             if checkpoint_path is not None
                             else " (checkpointing disabled: the sink "
                                  "keeps emitted rows, but operator "
                                  "state is lost)")
                    raise StreamInterrupted(
                        f"stream interrupted after batch {n}{where}",
                        checkpoint_path=outcome.checkpoint_path,
                        batches=outcome.batches)

        if store is not None:
            # A completed stream leaves nothing to resume.
            store.discard(name)
        outcome.elapsed_seconds = clock.now - t0
        outcome.checkpoint_path = None
        metrics.gauge("stream.throughput_rps", outcome.throughput_rps)
        return outcome

    # -- geometry --------------------------------------------------------

    def _total_batches(self) -> int:
        cfg = self.config
        if cfg.total_records is not None:
            total = -(-cfg.total_records // cfg.batch_records)
            if cfg.max_batches is not None:
                total = min(total, cfg.max_batches)
            return total
        if cfg.max_batches is None:     # pragma: no cover - validated
            raise StreamError(
                "an unbounded source needs max_batches to bound the run")
        return cfg.max_batches

    def _batch_size(self, batch_id: int) -> int:
        cfg = self.config
        size = cfg.batch_records
        if cfg.total_records is not None:
            size = min(size,
                       max(0, cfg.total_records
                           - batch_id * cfg.batch_records))
        return size
