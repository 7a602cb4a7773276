"""The S2FA parallel learning-based DSE engine (Fig. 2, solid lines in
Fig. 3).

Pipeline per run:

1. identify the design space (Table 1),
2. statically partition it with the decision tree (Section 4.3.1),
3. give each partition its own bandit tuner with the two generated seeds
   (Section 4.3.2),
4. schedule partitions onto the eight workers first-come-first-served on
   the virtual clock (each partition's tuner is inherently sequential, so
   one partition occupies one worker),
5. terminate each partition by the Shannon-entropy criterion
   (Section 4.3.3) or the global time limit, whichever first.

Scheduling is round-based: every round, each running partition proposes
its next candidate, the whole candidate set goes to the evaluator as one
batch, and the results are merged back onto the virtual clock at each
partition's own completion time.  A partition's tuner sequence depends
only on its own history and evaluation is a pure function of the point,
so the reported DSE minutes are a function of the seed alone.

Crash safety is replay: the exploration is a deterministic function of
the seed and the configuration, and with a persistent
:class:`~repro.dse.cache.CacheStore` every estimate survives a kill.
Rerunning an interrupted exploration over the same store therefore
reproduces the uninterrupted run's report, answering each point the
killed run estimated from the store instead of the backend.
:meth:`S2FAEngine.request_stop` arms a graceful stop: the current batch
finishes and the run raises :class:`~repro.errors.ExplorationInterrupted`.
"""

from __future__ import annotations

import heapq
import math
import random
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..durable import CHAOS_KILL_ENV, ChaosKill  # noqa: F401 (re-export)
from ..errors import DSEError, ExplorationInterrupted
from ..obs.span import NULL_TRACER
from .bandit import BanditTuner
from .checkpoint import CHECKPOINT_KIND, CheckpointStore
from .cache import canonical_key
from .evaluator import Evaluation, Evaluator, ExplorationTrace
from .partition import Partition, build_partitions
from .result import DSERun, PartitionReport
from .seeds import seeds_for
from .space import DesignSpace
from .stopping import EntropyStopping, StoppingCriterion

DEFAULT_TIME_LIMIT_MINUTES = 240.0

#: Virtual minutes charged for re-visiting an already-evaluated point
#: (the tuner only pays a bookkeeping cost, not an HLS run).
CACHED_EVALUATION_MINUTES = 0.05

#: Share of each batch's *unknown* points the surrogate may prune.
DEFAULT_PRUNE_FRACTION = 0.5

#: How many of the best-predicted pruned points are re-scored by the
#: analytical model at finalize, so a surrogate mistake on a would-be
#: optimum is caught instead of silently lost.
REVALIDATE_TOP_K = 5

#: Pruned points predicted within this factor of the incumbent best are
#: revalidated too (the near-top band is where a ranking error hurts).
REVALIDATE_MARGIN = 2.0

#: Hard bound on finalize revalidations.  When the run pruned at most
#: this many distinct points, *all* of them are revalidated — on an
#: exhaustively-checkable micro space the pruned run therefore returns
#: the identical optimum, by construction rather than by luck.
REVALIDATE_CAP = 32


@dataclass
class _PartitionState:
    partition: Partition
    tuner: BanditTuner
    stopping: StoppingCriterion
    evaluations: int = 0
    stopped_early: bool = False
    start_minutes: float = 0.0
    end_minutes: float = 0.0
    started: bool = False
    #: virtual time at which this partition's worker becomes free
    free_at: float = 0.0
    #: (technique, Evaluation) currently occupying the worker
    in_flight: Optional[tuple] = None


@dataclass
class _RunState:
    """Everything the main loop mutates."""

    states: list[_PartitionState]
    pending: deque
    running: list[_PartitionState] = field(default_factory=list)
    #: completed evaluations as (virtual time, dispatch order, eval)
    samples: list[tuple[float, int, Evaluation]] = field(
        default_factory=list)
    truncated: bool = False
    last_event: float = 0.0
    sequence: int = 0
    rounds: int = 0


class S2FAEngine:
    """Runs the full S2FA DSE for one compiled kernel."""

    def __init__(self, evaluator: Evaluator, space: DesignSpace, *,
                 seed: int = 0, workers: int = 8,
                 time_limit_minutes: float = DEFAULT_TIME_LIMIT_MINUTES,
                 max_partitions: int = 8,
                 use_partitioning: bool = True,
                 use_seeds: bool = True,
                 stopping_factory: Optional[
                     Callable[[], StoppingCriterion]] = None,
                 checkpoint_store: Optional[CheckpointStore] = None,
                 surrogate=None,
                 prune_fraction: float = DEFAULT_PRUNE_FRACTION,
                 tracer=NULL_TRACER):
        self.evaluator = evaluator
        self.space = space
        self.seed = seed
        self.rng = random.Random(seed)
        self.workers = workers
        self.time_limit = time_limit_minutes
        self.max_partitions = max_partitions
        self.use_partitioning = use_partitioning
        self.use_seeds = use_seeds
        self.stopping_factory = stopping_factory or EntropyStopping
        self.checkpoint_store = checkpoint_store
        if not 0.0 <= prune_fraction < 1.0:
            raise DSEError(
                f"prune_fraction must be in [0, 1), got {prune_fraction}")
        #: an optional :class:`~repro.cost.SurrogateCostModel` used to
        #: prune each batch; never a source of truth for the optimum.
        self.surrogate = surrogate
        self.prune_fraction = prune_fraction
        self.tracer = tracer
        self._stop_requested = False
        # Weakly bound: a bound method stored on its own object is a
        # reference cycle, and the engine — with its evaluator, the
        # kernel and every cached evaluation — would wait for a full gc
        # pass instead of being freed when the exploration returns.
        stop = weakref.WeakMethod(self.request_stop)
        self._chaos = ChaosKill(lambda: stop()())

    # ------------------------------------------------------------------

    def _probe(self, point: dict) -> float:
        """Offline rule characterization: model-only, no virtual time."""
        qor = self.evaluator.cost_model.safe_score(
            self.evaluator.compiled.kernel, point, self.evaluator.device,
            tracer=self.tracer)
        return qor.value

    def _make_partitions(self) -> list[Partition]:
        if not self.use_partitioning:
            return [Partition(constraints={}, predicted_qor=0.0, index=0)]
        with self.tracer.span("dse.partition") as span:
            partitions = build_partitions(
                self.space, self._probe, self.rng,
                max_partitions=self.max_partitions,
                samples=max(96, 12 * self.max_partitions))
            span.set(partitions=len(partitions))
        return partitions

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------

    def request_stop(self) -> None:
        """Arm a graceful stop (signal-handler safe).

        The in-flight batch finishes, its results are merged, and the
        run raises :class:`~repro.errors.ExplorationInterrupted`.
        """
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self) -> DSERun:
        """Execute the exploration (traced as one ``dse.run`` span)."""
        with self.tracer.span(
                "dse.run", space_size=self.space.size(),
                workers=self.workers,
                time_limit_minutes=self.time_limit) as root:
            rs = self._fresh_state()
            self._loop(rs)
            run = self._finalize(rs)
            root.set(evaluations=run.evaluations,
                     termination_minutes=run.termination_minutes)
            if math.isfinite(run.best_qor):
                root.set(best_qor=run.best_qor)
            stats = run.evaluator_stats
            if stats:
                self.tracer.metrics.gauge("dse.cache.hit_rate",
                                          stats.get("hit_rate", 0.0))
        return run

    def _fresh_state(self) -> _RunState:
        partitions = self._make_partitions()
        states: list[_PartitionState] = []
        for partition in partitions:
            subspace = partition.subspace(self.space)
            tuner = BanditTuner(subspace, random.Random(
                self.rng.randrange(2**31)))
            if self.use_seeds:
                for seed_point in seeds_for(subspace):
                    tuner.add_seed(seed_point)
            else:
                tuner.add_seed(subspace.random_point(self.rng))
            states.append(_PartitionState(
                partition=partition, tuner=tuner,
                stopping=self.stopping_factory()))
        rs = _RunState(states=states, pending=deque(states))
        for _ in range(min(self.workers, len(rs.pending))):
            self._start_partition(rs, 0.0)
        return rs

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _start_partition(self, rs: _RunState, at: float) -> None:
        state = rs.pending.popleft()
        state.started = True
        state.start_minutes = at
        state.free_at = at
        rs.running.append(state)

    def _retire(self, rs: _RunState, state: _PartitionState,
                at: float) -> None:
        state.end_minutes = at
        rs.running.remove(state)

    def _write_checkpoint(self, rs: _RunState) -> None:
        if self.checkpoint_store is None:
            return
        digest = self.evaluator.kernel_digest
        self.checkpoint_store.save(digest, {
            "kind": CHECKPOINT_KIND,
            "identity": {"kernel_digest": digest, "seed": self.seed},
            "rounds": rs.rounds,
        })
        self.tracer.metrics.incr("dse.checkpoint.writes")

    def _evaluate_proposals(self, points: list[dict]) -> list[Evaluation]:
        """Evaluate one round's batch, surrogate-pruning the worst misses.

        Without a surrogate this is ``evaluate_batch`` verbatim.  With
        one, every point the caches do not already know is scored by the
        surrogate, and the worst ``prune_fraction`` of those misses is
        answered with the *prediction* (an ``Evaluation`` marked
        ``pruned=True``, charged only the surrogate's virtual minutes)
        instead of a real estimate.  Guarantees:

        * already-known points are never pruned (their answer is paid
          for — pruning would only discard information);
        * at least one point per round survives to the analytical model,
          so the search always makes real progress;
        * pruned evaluations never enter the evaluator caches, and
          :meth:`_finalize` both excludes them from the reported optimum
          and re-scores the best few analytically.
        """
        if self.surrogate is None or not points:
            return self.evaluator.evaluate_batch(points)
        kernel = self.evaluator.compiled.kernel
        device = self.evaluator.device
        predictions: dict[int, object] = {}
        for i, point in enumerate(points):
            if not self.evaluator.is_known(point):
                predictions[i] = self.surrogate.safe_score(
                    kernel, point, device, tracer=self.tracer)
        self.tracer.metrics.incr("dse.surrogate.scored",
                                 len(predictions))
        quota = min(int(len(predictions) * self.prune_fraction),
                    len(points) - 1)
        pruned_indices: set[int] = set()
        if quota > 0:
            # Worst predicted QoR first; the stable sort keeps proposal
            # order among ties, so pruning is deterministic.
            ranked = sorted(predictions,
                            key=lambda i: predictions[i].value,
                            reverse=True)
            pruned_indices = set(ranked[:quota])
            self.tracer.metrics.incr("dse.surrogate.pruned", quota)
        survivors = [p for i, p in enumerate(points)
                     if i not in pruned_indices]
        real = iter(self.evaluator.evaluate_batch(survivors))
        merged: list[Evaluation] = []
        for i, point in enumerate(points):
            if i in pruned_indices:
                qor = predictions[i]
                merged.append(Evaluation(
                    point=dict(point), qor=qor.value,
                    result=qor.to_result(device), minutes=qor.minutes,
                    pruned=True))
            else:
                merged.append(next(real))
        return merged

    def _loop(self, rs: _RunState) -> None:
        events: list[tuple[float, int, _PartitionState]] = []
        while rs.running:
            # Dispatch: every free partition proposes its next candidate;
            # the whole round goes to the evaluator as one batch.
            with self.tracer.span("dse.batch", round=rs.rounds) as bspan:
                proposals = []
                for state in rs.running:
                    if state.in_flight is not None:
                        continue
                    with self.tracer.span(
                            "dse.propose",
                            partition=state.partition.index) as pspan:
                        name, point = state.tuner.step()
                        pspan.set(technique=name)
                    proposals.append((state, name, point))
                evaluations = self._evaluate_proposals(
                    [point for _, _, point in proposals])
                bspan.set(
                    proposals=len(proposals),
                    cached=sum(1 for e in evaluations if e.cached),
                    pruned=sum(1 for e in evaluations if e.pruned),
                    techniques=",".join(sorted(
                        {name for _, name, _ in proposals})))
                self.tracer.metrics.incr("dse.batches")
            rs.rounds += 1
            self._chaos.fire("mid", rs.rounds)
            self._chaos.fire("stop", rs.rounds)
            for (state, name, _), evaluation in zip(proposals,
                                                    evaluations):
                duration = CACHED_EVALUATION_MINUTES \
                    if evaluation.cached else evaluation.minutes
                state.in_flight = (name, evaluation)
                rs.sequence += 1
                heapq.heappush(
                    events,
                    (state.free_at + duration, rs.sequence, state))

            # Merge: replay completions in virtual-time order; partitions
            # freed mid-round (early stop starts a pending partition at
            # that completion time) join the next round's batch.
            while events:
                finish, order, state = heapq.heappop(events)
                name, evaluation = state.in_flight
                state.in_flight = None
                if finish > self.time_limit:
                    # The run ends before this evaluation completes; the
                    # work is discarded, exactly like the serial clock.
                    rs.truncated = True
                    self._retire(rs, state, self.time_limit)
                    continue
                rs.last_event = max(rs.last_event, finish)
                state.free_at = finish
                state.evaluations += 1
                rs.samples.append((finish, order, evaluation))
                state.tuner.feed(name, evaluation)
                should_stop = state.stopping.observe(
                    evaluation.point, evaluation.qor)
                if should_stop:
                    state.stopped_early = True
                if should_stop or finish >= self.time_limit:
                    self._retire(rs, state, finish)
                    if rs.pending:
                        self._start_partition(rs, finish)

            # Batch boundary: the event heap is drained, nothing is in
            # flight, and every estimate of the round is in the store.
            self._write_checkpoint(rs)
            self._chaos.fire("boundary", rs.rounds)
            if self._stop_requested and rs.running:
                where = ("; rerun with the same --cache-dir to resume"
                         if self.evaluator.store is not None
                         else " (no persistent cache: a rerun starts "
                              "over)")
                raise ExplorationInterrupted(
                    f"exploration interrupted after {rs.rounds} "
                    f"batches{where}", rounds=rs.rounds)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def _finalize(self, rs: _RunState) -> DSERun:
        end = self.time_limit if rs.truncated else rs.last_event

        # Rebuild the best-so-far trajectory in virtual-time order (the
        # batched rounds complete out of order across rounds).
        rs.samples.sort(key=lambda s: (s[0], s[1]))
        trace = ExplorationTrace()
        global_best = {"qor": float("inf"), "point": None, "eval": None}
        estimates = 0
        for minutes, _, evaluation in rs.samples:
            if evaluation.pruned:
                # A surrogate verdict: it fed the tuners, but it is not
                # a real evaluation and can never be the optimum.
                continue
            if not evaluation.cached:
                estimates += 1
            if evaluation.qor < global_best["qor"]:
                global_best["qor"] = evaluation.qor
                global_best["point"] = dict(evaluation.point)
                global_best["eval"] = evaluation
            trace.record(minutes, global_best["qor"], estimates)
        first_qor = rs.samples[0][2].qor if rs.samples else float("inf")

        surrogate_stats = self._revalidate_pruned(rs, global_best)

        for state in rs.states:
            if state.started and state.end_minutes == 0.0:
                state.end_minutes = end

        reports = [
            PartitionReport(
                index=state.partition.index,
                description=state.partition.describe(),
                evaluations=state.evaluations,
                best_qor=state.tuner.best.qor,
                stopped_early=state.stopped_early,
                start_minutes=state.start_minutes,
                end_minutes=state.end_minutes,
            )
            for state in rs.states if state.started
        ]
        best_eval = global_best["eval"]
        if self.checkpoint_store is not None:
            self.checkpoint_store.discard(self.evaluator.kernel_digest)
        return DSERun(
            name="s2fa",
            trace=trace,
            best_point=global_best["point"],
            best_qor=global_best["qor"],
            best_result=best_eval.result if best_eval else None,
            evaluations=self.evaluator.evaluations,
            termination_minutes=end,
            first_qor=first_qor,
            partitions=reports,
            space_size=self.space.size(),
            evaluator_stats=self.evaluator.stats()
            if hasattr(self.evaluator, "stats") else None,
            surrogate_stats=surrogate_stats,
        )

    def _revalidate_pruned(self, rs: _RunState,
                           global_best: dict) -> Optional[dict]:
        """Re-score the best-predicted pruned points analytically.

        The surrogate's one dangerous failure mode is pruning the true
        optimum.  Insurance at finalize: distinct pruned points are
        ranked by prediction and re-scored analytically — all of them
        when at most ``REVALIDATE_CAP`` exist (micro spaces keep their
        exact-optimum guarantee), otherwise the ``REVALIDATE_TOP_K``
        best plus the near-top band predicted within
        ``REVALIDATE_MARGIN`` of the incumbent, capped.  Any point that
        beats the current best is promoted.  Returns the run's
        surrogate statistics (``None`` when no surrogate was used).

        The revalidations go to the evaluator as one batch, and the
        reported ``revalidation_minutes`` is the batch *makespan* over
        the run's worker fleet (longest-processing-time assignment to
        as many workers as partitions ran) — the same parallel virtual
        clock the main loop charges, not a serial sum.
        """
        if self.surrogate is None:
            return None
        pruned = [e for _, _, e in rs.samples if e.pruned]
        distinct: dict = {}
        for evaluation in pruned:
            key = canonical_key(evaluation.point)
            kept = distinct.get(key)
            if kept is None or evaluation.qor < kept.qor:
                distinct[key] = evaluation
        ranked = sorted(distinct.values(), key=lambda e: e.qor)
        if len(ranked) <= REVALIDATE_CAP:
            top = ranked
        else:
            margin = global_best["qor"] * REVALIDATE_MARGIN
            band = sum(1 for e in ranked if e.qor <= margin)
            top = ranked[:min(max(REVALIDATE_TOP_K, band),
                              REVALIDATE_CAP)]
        evaluations = self.evaluator.evaluate_batch(
            [prediction.point for prediction in top]) if top else []
        durations = [CACHED_EVALUATION_MINUTES if e.cached
                     else e.minutes for e in evaluations]
        workers = max(1, sum(1 for s in rs.states if s.started))
        loads = [0.0] * workers
        for duration in sorted(durations, reverse=True):
            loads[loads.index(min(loads))] += duration
        revalidation_minutes = max(loads) if durations else 0.0
        promoted = 0
        for evaluation in evaluations:
            if evaluation.qor < global_best["qor"]:
                global_best["qor"] = evaluation.qor
                global_best["point"] = dict(evaluation.point)
                global_best["eval"] = evaluation
                promoted += 1
        if promoted:
            self.tracer.metrics.incr("dse.surrogate.promotions",
                                     promoted)
        self.tracer.metrics.gauge(
            "dse.surrogate.prune_rate",
            self.tracer.metrics.counter_ratio("dse.surrogate.pruned",
                                              "dse.surrogate.scored"))
        return {
            "model": self.surrogate.identity(),
            "prune_fraction": self.prune_fraction,
            "pruned": len(pruned),
            "pruned_distinct": len(distinct),
            "revalidated": len(top),
            "revalidation_minutes": round(revalidation_minutes, 4),
            "promoted": promoted,
            "fidelity": dict(self.surrogate.fidelity),
        }
