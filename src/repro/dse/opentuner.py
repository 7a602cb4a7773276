"""Vanilla OpenTuner baseline runtime (the dashed lines in Fig. 3).

Characteristics reproduced from the paper:

* no design-space partitioning — one bandit tuner over the whole space;
* random starting point (no seed generation);
* no systematic stopping criterion — only a wall-clock limit (the paper
  uses four hours);
* eight cores spent evaluating the top-8 candidates of each iteration in
  parallel (footnote 3 — "not scalable in terms of the efficiency"): an
  iteration's wall time is the *slowest* of its eight HLS runs, and the
  sequential bandit cannot hand out more useful parallel work than that.
"""

from __future__ import annotations

import random
from typing import Optional

from .bandit import BanditTuner
from .evaluator import Evaluator, ExplorationTrace
from .result import DSERun
from .space import DesignSpace
from .stopping import StoppingCriterion

DEFAULT_TIME_LIMIT_MINUTES = 240.0


class OpenTunerRuntime:
    """The baseline explorer."""

    def __init__(self, evaluator: Evaluator, space: DesignSpace, *,
                 seed: int = 0, parallelism: int = 8,
                 time_limit_minutes: float = DEFAULT_TIME_LIMIT_MINUTES,
                 stopping: Optional[StoppingCriterion] = None):
        self.evaluator = evaluator
        self.space = space
        self.rng = random.Random(seed)
        self.parallelism = parallelism
        self.time_limit = time_limit_minutes
        self.stopping = stopping

    def _top_k_batch(self, tuner: BanditTuner) -> list[tuple[str, dict]]:
        """One bandit iteration's top-k candidates.

        The sequential tuner produces *one* proposal per iteration; the
        remaining k-1 parallel slots are filled with that candidate's
        next-ranked variations (small perturbations), which is what
        "evaluate top-8 candidates at one iteration" buys you — highly
        correlated points, hence the paper's footnote that this use of
        eight cores "is not scalable in terms of the efficiency".
        """
        name, point = tuner.step()
        batch = [(name, point)]
        for _ in range(self.parallelism - 1):
            variant = dict(point)
            for _ in range(1 + (self.rng.random() < 0.4)):
                param = self.rng.choice(self.space.parameters)
                index = param.index_of(variant[param.name])
                index = param.clamp_index(
                    index + self.rng.choice((-1, 1)))
                variant[param.name] = param.values[index]
            batch.append((name, variant))
        return batch

    def run(self) -> DSERun:
        tuner = BanditTuner(self.space, self.rng)
        tuner.add_seed(self.space.random_point(self.rng))  # random start
        trace = ExplorationTrace()
        now = 0.0
        first_qor: float = float("inf")
        first_seen = False
        best_eval = None
        stopped = False

        while now < self.time_limit and not stopped:
            batch = self._top_k_batch(tuner)
            # The iteration's top-k candidates are one evaluator batch.
            results = self.evaluator.evaluate_batch(
                [point for _, point in batch])
            evaluations = [(name, evaluation) for (name, _), evaluation
                           in zip(batch, results)]
            # Wall time of the iteration: slowest HLS run of the batch
            # (cached re-evaluations are free).
            duration = max(
                [e.minutes for _, e in evaluations if not e.cached],
                default=0.5)
            now += duration
            if now > self.time_limit:
                # The run ends before this iteration completes; its
                # work is discarded, exactly like S2FAEngine's loop.
                trace.record(self.time_limit, tuner.best.qor,
                             self.evaluator.evaluations)
                break
            for name, evaluation in evaluations:
                if not first_seen:
                    first_qor = evaluation.qor
                    first_seen = True
                improved = tuner.feed(name, evaluation)
                if improved:
                    best_eval = evaluation
                if self.stopping is not None and self.stopping.observe(
                        evaluation.point, evaluation.qor):
                    stopped = True
            trace.record(now, tuner.best.qor, self.evaluator.evaluations)

        return DSERun(
            name="opentuner",
            trace=trace,
            best_point=tuner.best.point,
            best_qor=tuner.best.qor,
            best_result=best_eval.result if best_eval else None,
            evaluations=self.evaluator.evaluations,
            termination_minutes=min(now, self.time_limit),
            first_qor=first_qor,
            space_size=self.space.size(),
            evaluator_stats=self.evaluator.stats()
            if hasattr(self.evaluator, "stats") else None,
        )
