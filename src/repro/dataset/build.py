"""The QoR dataset factory behind ``s2fa dataset build``.

Sweeps kernels (the built-in application suite plus fuzz-generated
ones) crossed with sampled Merlin configurations through the analytical
estimator and writes one :class:`~repro.dataset.schema.DatasetRecord`
per pair.  Three properties the surrogate trainer depends on:

* **deterministic** — the kernel sequence and the sampled points are a
  pure function of ``DatasetConfig.seed`` (per-kernel RNGs are seeded
  from the seed and the kernel name, so adding a kernel never reshuffles
  the others' samples);
* **resumable** — with ``resume=True`` records already present in the
  output file are kept and their (digest, point) pairs skipped, and the
  optional :class:`~repro.dse.cache.CacheStore` makes re-estimation of
  already-seen points free;
* **honest** — every record stores the feature-schema and estimator
  versions, so a trainer can refuse stale data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..config import DatasetConfig
from ..cost import FEATURE_SCHEMA_VERSION, extract_features
from ..dse.cache import CacheStore, canonical_key
from ..dse.evaluator import Evaluator
from ..dse.space import build_space
from ..errors import S2FAError
from ..hls.device import Device, VU9P
from ..hls.estimator import ESTIMATOR_VERSION
from ..merlin.config import DesignConfig
from ..obs.span import NULL_TRACER
from .schema import DatasetRecord, DatasetWriter, read_records


@dataclass
class BuildReport:
    """Outcome of one ``s2fa dataset build`` sweep."""

    path: str
    records: int = 0
    kernels: int = 0
    skipped_existing: int = 0
    skipped_corrupt: int = 0
    failed_kernels: list = field(default_factory=list)
    infeasible: int = 0
    minutes_total: float = 0.0


def dataset_kernels(cfg: DatasetConfig) -> list:
    """The kernel sweep: ``(name, CompiledKernel)`` pairs.

    The application suite comes first (in registry order), then
    ``cfg.kernels`` fuzz-generated kernels biased toward loops and
    arrays.  A generated kernel the compiler rejects is skipped (the
    fuzzer's job is to find those; the dataset's is not) — callers see
    the skip in :attr:`BuildReport.failed_kernels`.
    """
    from ..compiler.driver import compile_kernel
    from ..fuzz.gen import dataset_kernel

    out = []
    if cfg.apps:
        from ..apps import ALL_APPS

        for spec in ALL_APPS:
            out.append((spec.name, spec.compile()))
    rng = random.Random(f"s2fa-dataset:{cfg.seed}")
    for index in range(cfg.kernels):
        fuzz = dataset_kernel(rng, name=f"Ds{index + 1}")
        try:
            compiled = compile_kernel(
                fuzz.scala(), layout_config=fuzz.layout_config(),
                batch_size=64)
        except S2FAError as exc:
            out.append((fuzz.name, exc))
            continue
        out.append((fuzz.name, compiled))
    return out


def sample_points(space, rng: random.Random, count: int) -> list:
    """``count`` distinct design points: the default point plus draws.

    Small spaces may not have ``count`` distinct points; sampling stops
    after a bounded number of duplicate draws rather than spinning.
    """
    points = [space.default_point()]
    seen = {canonical_key(points[0])}
    misses = 0
    while len(points) < count and misses < 20 * count:
        point = space.random_point(rng)
        key = canonical_key(point)
        if key in seen:
            misses += 1
            continue
        seen.add(key)
        points.append(point)
    return points


def build_dataset(cfg: DatasetConfig, *, device: Device = VU9P,
                  tracer=NULL_TRACER) -> BuildReport:
    """Run the sweep and write the JSONL dataset at ``cfg.out``."""
    report = BuildReport(path=cfg.out)
    existing: set = set()
    if cfg.resume:
        try:
            records, report.skipped_corrupt = read_records(cfg.out)
            existing = {r.key() for r in records}
        except S2FAError:
            pass                        # no file yet: a fresh build
    store = CacheStore(cfg.cache_dir) if cfg.cache_dir else None

    with DatasetWriter(cfg.out, append=bool(existing)) as writer:
        for name, compiled in dataset_kernels(cfg):
            if isinstance(compiled, Exception):
                report.failed_kernels.append((name, str(compiled)))
                continue
            report.kernels += 1
            space = build_space(compiled, tracer=tracer)
            rng = random.Random(f"s2fa-dataset:{cfg.seed}:{name}")
            points = sample_points(space, rng, cfg.configs)
            evaluator = Evaluator(compiled, device, store=store,
                                  tracer=tracer)
            digest = evaluator.kernel_digest
            todo = []
            for point in points:
                if (digest, canonical_key(point)) in existing:
                    report.skipped_existing += 1
                    continue
                todo.append(point)
            evaluations = evaluator.evaluate_batch(todo) if todo else []
            for point, evaluation in zip(todo, evaluations):
                result = evaluation.result
                features = extract_features(
                    compiled.kernel, DesignConfig.from_point(point), device)
                writer.write(DatasetRecord(
                    kernel=name,
                    digest=digest,
                    point=point,
                    features=features.values,
                    feature_schema=FEATURE_SCHEMA_VERSION,
                    feasible=result.feasible,
                    qor=evaluation.qor if result.feasible else None,
                    cycles=float(result.cycles),
                    minutes=evaluation.minutes,
                    estimator_version=ESTIMATOR_VERSION))
                report.records += 1
                report.minutes_total += evaluation.minutes
                if not result.feasible:
                    report.infeasible += 1
    return report
