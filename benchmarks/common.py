"""Shared helpers for the benchmark harness.

Everything expensive (kernel compilation, DSE runs, JVM baseline timing)
is cached per (app, seed) so the Table 2 / Fig. 3 / Fig. 4 benches can
share results instead of re-exploring.

One environment knob (also settable as the ``--cache-dir`` pytest
option, see ``conftest.py``) controls the evaluation backend without
touching the science: ``S2FA_CACHE_DIR`` names a persistent evaluation
cache directory, so a second benchmark run skips re-estimation entirely.
"""

from __future__ import annotations

import os
from functools import lru_cache

from repro.apps import ALL_APPS, get_app
from repro.blaze.runtime import _JVMTaskRunner
from repro.dse import (
    CacheStore,
    DSERun,
    Evaluator,
    OpenTunerRuntime,
    S2FAEngine,
    build_space,
)
from repro.fpga.board import offload_seconds_per_task
from repro.hls import estimate
from repro.hls.result import HLSResult
from repro.merlin import DesignConfig

#: Seeds used by the Fig. 3 aggregate (one run per seed per app).
FIG3_SEEDS = (1, 2, 3)

#: Seed used wherever a single representative DSE run is needed.
DEFAULT_SEED = 1

APP_NAMES = [spec.name for spec in ALL_APPS]

#: Every evaluator built this process (for the aggregate stats).
EVALUATORS: list[Evaluator] = []


@lru_cache(maxsize=None)
def cache_store() -> CacheStore | None:
    directory = os.environ.get("S2FA_CACHE_DIR")
    return CacheStore(directory) if directory else None


def make_evaluator(name: str, frequency_aware: bool = True) -> Evaluator:
    """Evaluation backend honouring ``S2FA_CACHE_DIR``."""
    evaluator = Evaluator(compiled(name), store=cache_store(),
                          frequency_aware=frequency_aware)
    EVALUATORS.append(evaluator)
    return evaluator


def aggregate_stats() -> dict:
    """Sum of the per-run backend stats (for the bench reports)."""
    total = {"unique_points": 0, "estimates": 0, "memory_hits": 0,
             "store_hits": 0, "batches": 0, "mean_batch": 0.0,
             "max_batch": 0, "hit_rate": 0.0}
    points = 0
    for evaluator in EVALUATORS:
        stats = evaluator.stats()
        for key in ("unique_points", "estimates", "memory_hits",
                    "store_hits", "batches"):
            total[key] += stats[key]
        total["max_batch"] = max(total["max_batch"], stats["max_batch"])
        points += stats["batches"] * stats["mean_batch"]
    if total["batches"]:
        total["mean_batch"] = points / total["batches"]
    probes = (total["estimates"] + total["memory_hits"]
              + total["store_hits"])
    if probes:
        total["hit_rate"] = (total["memory_hits"]
                             + total["store_hits"]) / probes
    store = cache_store()
    if store is not None:
        total["store"] = store.stats()
    return total


@lru_cache(maxsize=None)
def compiled(name: str):
    return get_app(name).compile()


@lru_cache(maxsize=None)
def design_space(name: str):
    return build_space(compiled(name))


@lru_cache(maxsize=None)
def s2fa_run(name: str, seed: int = DEFAULT_SEED, **kwargs) -> DSERun:
    engine = S2FAEngine(make_evaluator(name), design_space(name),
                        seed=seed, **kwargs)
    return engine.run()


@lru_cache(maxsize=None)
def opentuner_run(name: str, seed: int = DEFAULT_SEED) -> DSERun:
    runtime = OpenTunerRuntime(make_evaluator(name),
                               design_space(name), seed=seed)
    return runtime.run()


@lru_cache(maxsize=None)
def best_design(name: str) -> tuple[DesignConfig, HLSResult]:
    """The best S2FA-chosen design across the Fig. 3 DSE runs.

    Table 2 reports "the best configurations from the DSE"; taking the
    best of the per-seed runs matches that (the paper runs one long DSE,
    we run several shorter seeded ones for the aggregate statistics).
    """
    best_run = min((s2fa_run(name, seed) for seed in FIG3_SEEDS),
                   key=lambda run: run.best_qor)
    config = DesignConfig.from_point(best_run.best_point)
    return config, estimate(compiled(name).kernel, config)


@lru_cache(maxsize=None)
def manual_design(name: str) -> tuple[DesignConfig, HLSResult]:
    spec = get_app(name)
    config = spec.manual_config(compiled(name))
    return config, estimate(compiled(name).kernel, config)


@lru_cache(maxsize=None)
def jvm_seconds_per_task(name: str) -> float:
    """Sampled single-thread JVM executor time per task."""
    spec = get_app(name)
    ck = compiled(name)
    runner = _JVMTaskRunner(ck)
    sample = max(1, min(spec.jvm_sample, 64))
    tasks = spec.workload(sample, seed=17)
    for task in tasks:
        runner.call(task)
    return runner.seconds / len(tasks)


def fpga_seconds_per_task(name: str, hls: HLSResult) -> float:
    ck = compiled(name)
    bytes_per_task = (ck.kernel.metadata["bytes_in_per_task"]
                      + ck.kernel.metadata["bytes_out_per_task"])
    return offload_seconds_per_task(hls, ck.batch_size, bytes_per_task)


def speedup_over_jvm(name: str, hls: HLSResult) -> float:
    if not hls.feasible:
        return float("nan")
    return jvm_seconds_per_task(name) / fpga_seconds_per_task(name, hls)
