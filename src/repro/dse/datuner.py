"""A DATuner-style dynamically partitioned explorer (comparison point).

Section 4.3 contrasts S2FA's *static* partitioning with DATuner
[Xu et al., FPGA'17], which "dynamically partition[s] the design space and
allocat[es] more CPU cores to the partition with higher QoR", at the cost
of "several iterations for sampling at the beginning of the DSE process
for every partition".

This module implements that flow faithfully enough to quantify the
trade-off on our kernels:

1. start with the whole space as one partition;
2. every epoch, rank partitions by their recent best QoR;
3. split the most promising partition on a structural factor (doubling
   focus there) and give the freed workers to the best partitions;
4. every *new* partition must first spend ``setup_samples`` random
   evaluations characterizing itself before its bandit tuner starts
   exploiting — the set-up time S2FA's offline rules avoid.

The explorer runs to the full time limit (DATuner terminates on a fixed
time budget).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .bandit import BanditTuner
from .engine import CACHED_EVALUATION_MINUTES
from .evaluator import Evaluator, ExplorationTrace
from .result import DSERun, PartitionReport
from .space import DesignSpace, Parameter
from .vclock import WorkerPool

DEFAULT_TIME_LIMIT_MINUTES = 240.0


@dataclass
class _DynamicPartition:
    constraints: dict[str, tuple]
    tuner: BanditTuner
    rng: random.Random
    setup_left: int
    index: int
    evaluations: int = 0
    best_qor: float = float("inf")
    start_minutes: float = 0.0
    end_minutes: float = 0.0
    rules: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return " AND ".join(self.rules) if self.rules else "(whole space)"


class DATunerEngine:
    """Dynamically partitioned parallel exploration."""

    def __init__(self, evaluator: Evaluator, space: DesignSpace, *,
                 seed: int = 0, workers: int = 8,
                 time_limit_minutes: float = DEFAULT_TIME_LIMIT_MINUTES,
                 setup_samples: int = 5,
                 split_every: int = 16):
        self.evaluator = evaluator
        self.space = space
        self.rng = random.Random(seed)
        self.workers = workers
        self.time_limit = time_limit_minutes
        self.setup_samples = setup_samples
        self.split_every = split_every
        self._partition_counter = 0

    # ------------------------------------------------------------------

    def _splittable_params(self, constraints: dict) -> list[Parameter]:
        params = []
        for p in self.space.parameters:
            if p.kind not in ("pipeline", "parallel"):
                continue
            allowed = constraints.get(p.name, p.values)
            if len(allowed) > 1:
                params.append(p)
        return params

    def _make_partition(self, constraints: dict,
                        rules: list[str]) -> _DynamicPartition:
        subspace = self.space.restrict(constraints) if constraints \
            else self.space
        rng = random.Random(self.rng.randrange(2**31))
        tuner = BanditTuner(subspace, rng)
        partition = _DynamicPartition(
            constraints=dict(constraints), tuner=tuner, rng=rng,
            setup_left=self.setup_samples,
            index=self._partition_counter, rules=list(rules))
        self._partition_counter += 1
        return partition

    def _split(self, partition: _DynamicPartition
               ) -> Optional[tuple[_DynamicPartition, _DynamicPartition]]:
        candidates = self._splittable_params(partition.constraints)
        if not candidates:
            return None
        param = partition.rng.choice(candidates)
        allowed = list(partition.constraints.get(param.name, param.values))
        half = max(1, len(allowed) // 2)
        left_vals, right_vals = tuple(allowed[:half]), tuple(allowed[half:])
        left = dict(partition.constraints)
        left[param.name] = left_vals
        right = dict(partition.constraints)
        right[param.name] = right_vals
        return (
            self._make_partition(
                left, partition.rules + [f"{param.name} in {left_vals}"]),
            self._make_partition(
                right, partition.rules + [f"{param.name} in {right_vals}"]),
        )

    # ------------------------------------------------------------------

    def run(self) -> DSERun:
        pool = WorkerPool(self.workers)
        trace = ExplorationTrace()
        global_best = {"qor": float("inf"), "point": None, "eval": None}
        first = {"qor": float("inf"), "seen": False}
        active: list[_DynamicPartition] = [self._make_partition({}, [])]
        retired: list[_DynamicPartition] = []
        evals_since_split = {"count": 0}

        def next_point(partition: _DynamicPartition):
            if partition.setup_left > 0:
                partition.setup_left -= 1
                subspace = partition.tuner.space
                return ("setup", subspace.random_point(partition.rng))
            return partition.tuner.step()

        def submit(partition: _DynamicPartition) -> None:
            def job():
                name, point = next_point(partition)
                evaluation = self.evaluator.evaluate(point)
                duration = CACHED_EVALUATION_MINUTES \
                    if evaluation.cached else evaluation.minutes

                def on_done(now: float) -> None:
                    partition.evaluations += 1
                    if not first["seen"]:
                        first["qor"] = evaluation.qor
                        first["seen"] = True
                    if name != "setup":
                        partition.tuner.feed(name, evaluation)
                    else:
                        partition.tuner.best.update(evaluation)
                    partition.best_qor = min(partition.best_qor,
                                             evaluation.qor)
                    if evaluation.qor < global_best["qor"]:
                        global_best["qor"] = evaluation.qor
                        global_best["point"] = dict(evaluation.point)
                        global_best["eval"] = evaluation
                    trace.record(now, global_best["qor"],
                                 self.evaluator.evaluations)
                    evals_since_split["count"] += 1
                    if evals_since_split["count"] >= self.split_every \
                            and active:
                        evals_since_split["count"] = 0
                        best = min(active, key=lambda p: p.best_qor)
                        children = self._split(best)
                        if children is not None:
                            active.remove(best)
                            best.end_minutes = now
                            retired.append(best)
                            for child in children:
                                child.start_minutes = now
                                active.append(child)
                    if now < self.time_limit:
                        # Allocate the freed worker to the best active
                        # partition (more cores to higher QoR).
                        pool_target = partition
                        if partition not in active and active:
                            pool_target = min(active,
                                              key=lambda p: p.best_qor)
                        submit(pool_target)
                    else:
                        partition.end_minutes = now

                return duration, on_done

            pool.submit(job)

        for _ in range(self.workers):
            submit(active[0] if len(active) == 1
                   else self.rng.choice(active))
        end = pool.run(until=self.time_limit)

        for partition in active + retired:
            if partition.end_minutes == 0.0:
                partition.end_minutes = end
        reports = [
            PartitionReport(
                index=p.index, description=p.describe(),
                evaluations=p.evaluations, best_qor=p.best_qor,
                stopped_early=False, start_minutes=p.start_minutes,
                end_minutes=p.end_minutes)
            for p in retired + active if p.evaluations
        ]
        best_eval = global_best["eval"]
        return DSERun(
            name="datuner",
            trace=trace,
            best_point=global_best["point"],
            best_qor=global_best["qor"],
            best_result=best_eval.result if best_eval else None,
            evaluations=self.evaluator.evaluations,
            termination_minutes=end,
            first_qor=first["qor"],
            partitions=reports,
            space_size=self.space.size(),
        )
