"""The traced run: per-layer metrics measured from outside ``src/``.

For one workload the traced run

1. alternates untraced and traced rounds of the workload's own facade
   ops (the traced ones thread a benchmark-owned ``repro.obs.Tracer``
   into the facade under a ``bench.facade`` parent span) — the
   difference is ``obs.trace_overhead_share``;
2. drives the same inputs stage by stage through each layer's public
   functions, one ``bench.<layer>.<call>`` span per call;
3. computes every metric from benchmark-side spans only (spans recorded
   inside ``src/`` may nest in the trace file but are never read), and
   writes the Chrome-trace and JSONL span logs to ``out/``.

Every ``*_s`` metric is **seconds per round** of the workload (one sweep
of its op classes; ``bench.round_ops`` ops), so a stage's share of the
blocking path is ``stage_s / bench.facade_s``.  A layer the workload
never enters reads 0.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import time

import e2e_oracles as oracles
import e2e_stats as stats
import e2e_workloads as wl
from e2e_metrics import PER_LAYER_NAMES

perf = time.perf_counter

#: Stage-replay rounds per workload (fixed: replay cost must not scale
#: with ``--seconds``).
COMPILE_REPLAYS = 5
OFFLOAD_REPLAYS = 3
#: Seeded design points sampled per app for merlin/hls/cost.
SAMPLE_POINTS = 64
#: Span micro-benchmark iterations.
SPAN_LOOPS = 20000
SERVE_CORE_REQUESTS = 600
SERVE_WIRE_SAMPLES = 300
SERVE_PINGS = 200


class LayerTrace:
    """The tracer, the metric sheet, and the oracle tally of one run."""

    def __init__(self):
        from repro.obs import Tracer

        self.tracer = Tracer()
        self.metrics = {name: 0.0 for name in PER_LAYER_NAMES}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.files: list[str] = []
        self._dur: dict = {}
        self._self: dict = {}

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def tally(self, rnd) -> None:
        self.attempted += len(rnd.ops)
        for op in rnd.ops:
            if not op.ok:
                self.failed += 1
                self.problems.append(op.problem)

    def index_spans(self) -> None:
        """(Re)build per-name duration and self-time totals."""
        self._dur, self._self = {}, {}
        for span in self.tracer.iter_spans():
            if span.name.startswith("bench."):
                self._dur[span.name] = (self._dur.get(span.name, 0.0)
                                        + span.duration)
        self._self = stats.span_totals(self.tracer.iter_spans())

    def seconds(self, name: str, *, self_only: bool = False) -> float:
        table = self._self if self_only else self._dur
        return table.get(name, 0.0)

    def export(self, stem: str) -> None:
        from repro.obs import write_chrome_trace, write_jsonl

        wl.OUT_DIR.mkdir(parents=True, exist_ok=True)
        chrome = wl.OUT_DIR / f"{stem}.trace.json"
        jsonl = wl.OUT_DIR / f"{stem}.spans.jsonl"
        write_chrome_trace(chrome, self.tracer)
        write_jsonl(jsonl, self.tracer)
        self.files = [str(chrome), str(jsonl)]


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------

def compile_spec(spec, layout):
    """``compile_kernel`` on a registered app with the given layout."""
    from repro.compiler.driver import compile_kernel

    return compile_kernel(spec.scala_source, layout_config=layout,
                          pattern=spec.pattern, batch_size=spec.batch_size)


def count_stmts(kernel) -> int:
    from repro.hlsc.ast import walk_stmts

    return sum(1 for function in kernel.functions
               for _ in walk_stmts(function))


def measure_obs(lt: LayerTrace) -> None:
    """Cost of one disabled and one recording span (own tracer, so the
    micro-benchmark does not flood the exported trace)."""
    from repro.obs import NULL_TRACER, Tracer

    start = perf()
    for _ in range(SPAN_LOOPS):
        with NULL_TRACER.span("obs.null"):
            pass
    lt.metrics["obs.null_span_ns"] = (perf() - start) / SPAN_LOOPS * 1e9
    scratch = Tracer()
    start = perf()
    for _ in range(SPAN_LOOPS):
        with scratch.span("obs.live"):
            pass
    lt.metrics["obs.span_ns"] = (perf() - start) / SPAN_LOOPS * 1e9


def facade_rounds(lt: LayerTrace, workload, budget_s: float) -> list:
    """Alternate untraced / traced rounds for about ``budget_s``.

    Returns the traced rounds; records ``bench.facade_s`` (median
    untraced round wall), ``bench.round_ops`` and the overhead share.
    """
    plain, traced, rounds = [], [], []
    begin = perf()
    index = 0
    while True:
        workload.tracer = None
        rnd = workload.run_round(index)
        lt.tally(rnd)
        plain.append(rnd.wall)
        workload.tracer = lt.tracer
        with lt.span("bench.facade", workload=workload.name, round=index):
            rnd = workload.run_round(index)     # same inputs, traced
        workload.tracer = None
        lt.tally(rnd)
        traced.append(rnd.wall)
        rounds.append(rnd)
        index += 1
        if perf() - begin >= budget_s:
            break
    base = statistics.median(plain)
    lt.metrics["bench.facade_s"] = base
    lt.metrics["bench.round_ops"] = float(len(rounds[0].ops))
    lt.metrics["obs.trace_overhead_share"] = (
        (statistics.median(traced) - base) / base)
    return rounds


def replay_offload(lt: LayerTrace, entry, batches: list) -> None:
    """One pass of the hardware path, stage by stage, per batch."""
    from repro.blaze import verify_outputs

    for tasks in batches:
        n = len(tasks)
        with lt.span("bench.blaze.serialize", tasks=n):
            buffers = entry.serializer(tasks)
        spare = entry.serializer(tasks)
        with lt.span("bench.fpga.exec", tasks=n):
            entry.board.executor.run(spare, n)
        with lt.span("bench.fpga.board_run", tasks=n):
            entry.board.run(buffers, n)
        with lt.span("bench.blaze.frame_verify"):
            verify_outputs(buffers, entry.output_names)
        with lt.span("bench.blaze.deserialize", tasks=n):
            entry.deserializer(buffers, n)


def replay_jvm(lt: LayerTrace, compiled, tasks: list) -> None:
    """The software fallback, split into bridge and TAC execution."""
    from repro.blaze import from_jvm, to_jvm
    from repro.engines import make_jvm_interpreter

    layout = compiled.layout
    interp = make_jvm_interpreter(compiled.registry)
    for task in tasks:
        with lt.span("bench.blaze.bridge"):
            jvm_in = to_jvm(task, layout.input_type, interp,
                            layout.records)
        with lt.span("bench.jvm.tac_exec"):
            jvm_out = interp.invoke(compiled.name, "call",
                                    [compiled.instance, jvm_in])
        with lt.span("bench.blaze.bridge"):
            from_jvm(jvm_out, layout.output_type, layout.records)


def replay_register(lt: LayerTrace, deployments: list) -> None:
    """Deploy cost of ``(compiled, design config, sample task)`` triples
    on a fresh runtime: registration as a whole, then its estimate and
    the executor build alone.  The flat executor compiles its closures
    lazily, so "build" is construction plus the first one-task run,
    less a second (steady) one-task run."""
    from repro.blaze import BlazeRuntime
    from repro.engines import make_kernel_executor
    from repro.hls import VU9P, estimate
    from repro.spark import SparkContext

    runtime = BlazeRuntime(SparkContext())
    for compiled, config, task in deployments:
        with lt.span("bench.blaze.register", accel=compiled.accel_id):
            entry = runtime.register(compiled, config)
        with lt.span("bench.hls.estimate"):
            estimate(compiled.kernel, config, VU9P)
        with lt.span("bench.fpga.build"):
            executor = make_kernel_executor(compiled.kernel)
            executor.run(entry.serializer([task]), 1)
        with lt.span("bench.fpga.build_steady"):
            executor.run(entry.serializer([task]), 1)


def register_metrics(lt: LayerTrace) -> None:
    m = lt.metrics
    m["blaze.register_s"] = lt.seconds("bench.blaze.register")
    m["hls.estimate_s"] = lt.seconds("bench.hls.estimate")
    m["fpga.build_s"] = max(0.0, lt.seconds("bench.fpga.build")
                            - lt.seconds("bench.fpga.build_steady"))


def warm(entry, tasks: list) -> None:
    """One untimed batch, so a replay never pays the lazy closure build
    (``fpga.build_s`` reports it on its own)."""
    entry.board.run(entry.serializer(tasks), len(tasks))


def offload_stage_metrics(lt: LayerTrace, per: float) -> None:
    """Fill the blaze/fpga/jvm/spark stage metrics (span totals over
    ``per`` replay rounds)."""
    m = lt.metrics
    m["spark.collect_s"] = lt.seconds("bench.spark.collect") / per
    m["blaze.serialize_s"] = lt.seconds("bench.blaze.serialize") / per
    m["blaze.deserialize_s"] = lt.seconds("bench.blaze.deserialize") / per
    m["blaze.frame_verify_s"] = lt.seconds("bench.blaze.frame_verify") / per
    m["blaze.bridge_s"] = lt.seconds("bench.blaze.bridge") / per
    m["jvm.tac_exec_s"] = lt.seconds("bench.jvm.tac_exec") / per
    m["fpga.exec_s"] = lt.seconds("bench.fpga.exec") / per
    m["fpga.board_run_s"] = lt.seconds("bench.fpga.board_run") / per


def blaze_counters(lt: LayerTrace, metrics_list: list, per: float) -> None:
    """Failure accounting of the facade runtimes, per round."""
    m = lt.metrics
    accel = sum(x.accel_tasks for x in metrics_list)
    fallback = sum(x.fallback_tasks for x in metrics_list)
    m["blaze.retries"] = sum(x.retries for x in metrics_list) / per
    m["blaze.quarantines"] = sum(x.quarantines for x in metrics_list) / per
    m["blaze.fallback_share"] = stats.share(fallback, accel + fallback)
    m["fpga.faults_injected"] = sum(
        x.transient_faults + x.timeouts + x.corrupt_batches
        + x.devices_lost for x in metrics_list) / per


# ----------------------------------------------------------------------
# compile-sweep
# ----------------------------------------------------------------------

def trace_compile(lt: LayerTrace, workload, seconds: float) -> None:
    from repro.hlsc.lint import lint_kernel
    from repro.hlsc.printer import kernel_to_c
    from repro.jvm.tac import lower_method
    from repro.scala import compile_program, parse, tokenize

    facade_rounds(lt, workload, 0.4 * seconds)
    counts = dict.fromkeys(
        ("tokens", "classes", "instructions", "stmts", "c_bytes"), 0)
    for replay in range(COMPILE_REPLAYS):
        for spec in workload.specs:
            source = spec.scala_source
            with lt.span("bench.scala.tokenize", app=spec.name):
                tokens = tokenize(source)
            with lt.span("bench.scala.parse", app=spec.name):
                parse(source)
            with lt.span("bench.scala.frontend", app=spec.name):
                _, classes = compile_program(source)
            with lt.span("bench.jvm.lower", app=spec.name):
                for jclass in classes:
                    for method in jclass.methods:
                        lower_method(jclass.name, method)
            with lt.span("bench.compiler.compile_kernel", app=spec.name):
                compiled = compile_spec(
                    spec, spec.functional_layout or spec.layout_config)
            with lt.span("bench.hlsc.print", app=spec.name):
                text = kernel_to_c(compiled.kernel)
            with lt.span("bench.hlsc.lint", app=spec.name):
                lint_kernel(compiled.kernel)
            if replay == 0:
                counts["tokens"] += len(tokens)
                counts["classes"] += len(classes)
                counts["instructions"] += sum(
                    len(m.code) for c in classes for m in c.methods)
                counts["stmts"] += count_stmts(compiled.kernel)
                counts["c_bytes"] += len(text.encode())
    lt.index_spans()
    per = float(COMPILE_REPLAYS)
    m = lt.metrics
    m["scala.tokenize_s"] = lt.seconds("bench.scala.tokenize") / per
    # parse(source) tokenizes internally: report the parser's own part.
    m["scala.parse_s"] = max(
        0.0, lt.seconds("bench.scala.parse") / per - m["scala.tokenize_s"])
    m["scala.frontend_s"] = lt.seconds("bench.scala.frontend") / per
    m["jvm.lower_s"] = lt.seconds("bench.jvm.lower") / per
    m["compiler.compile_kernel_s"] = (
        lt.seconds("bench.compiler.compile_kernel") / per)
    m["compiler.lift_s"] = (m["compiler.compile_kernel_s"]
                            - m["scala.frontend_s"])
    m["hlsc.print_s"] = lt.seconds("bench.hlsc.print") / per
    m["hlsc.lint_s"] = lt.seconds("bench.hlsc.lint") / per
    m["compiler.unattributed_s"] = stats.unattributed(
        m["bench.facade_s"],
        {"compile_kernel": m["compiler.compile_kernel_s"],
         "print": m["hlsc.print_s"]})
    m["scala.tokens"] = float(counts["tokens"])
    m["jvm.classes"] = float(counts["classes"])
    m["jvm.instructions"] = float(counts["instructions"])
    m["hlsc.stmts"] = float(counts["stmts"])
    m["hlsc.c_bytes"] = float(counts["c_bytes"])


# ----------------------------------------------------------------------
# explore-sweep
# ----------------------------------------------------------------------

def _timed_dse_classes(lt: LayerTrace):
    """Timing proxies around the evaluator, the cost model and the
    checkpoint store (subclasses: the engine sees the real types)."""
    from repro.cost import AnalyticalCostModel
    from repro.dse.checkpoint import CheckpointStore
    from repro.dse.parallel import ParallelEvaluator

    class TimedModel(AnalyticalCostModel):
        def score(self, kernel, config, device, *, tracer=None):
            with lt.span("bench.dse.model_score"):
                return super().score(kernel, config, device)

    class TimedEvaluator(ParallelEvaluator):
        def evaluate(self, point):
            with lt.span("bench.dse.evaluate"):
                return super().evaluate(point)

    class TimedCheckpoints(CheckpointStore):
        def save(self, digest, payload):
            with lt.span("bench.dse.checkpoint_save"):
                return super().save(digest, payload)

    return TimedModel, TimedEvaluator, TimedCheckpoints


def trace_explore(lt: LayerTrace, workload, seconds: float) -> None:
    from repro import ExploreConfig, S2FASession
    from repro.cost import AnalyticalCostModel, extract_features
    from repro.dse.cache import CacheStore, canonical_key
    from repro.dse.engine import S2FAEngine
    from repro.dse.space import build_space
    from repro.hls import VU9P, estimate
    from repro.merlin.config import DesignConfig
    from repro.merlin.transforms import apply_config

    facade_rounds(lt, workload, 0.25 * seconds)
    TimedModel, TimedEvaluator, TimedCheckpoints = _timed_dse_classes(lt)
    scratch = wl.scratch_dir("explore-")
    model = AnalyticalCostModel()
    dse_seed = workload._dse_seed(0)
    rng = random.Random(workload.seed)
    tally = dict(points=0, feasible=0, stmts_after=0, evaluations=0,
                 memo_hits=0, puts=0, gets=0, log_space=0.0)
    try:
        for spec in workload.specs:
            with lt.span("bench.compiler.compile_kernel", app=spec.name):
                compiled = compile_spec(spec, spec.layout_config)
            kernel = compiled.kernel
            with lt.span("bench.dse.space", app=spec.name):
                space = build_space(compiled)
            tally["log_space"] += math.log(space.size())

            points = [space.random_point(rng)
                      for _ in range(SAMPLE_POINTS)]
            configs = [DesignConfig.from_point(p) for p in points]
            results = []
            for config in configs:
                with lt.span("bench.merlin.apply"):
                    applied = apply_config(kernel, config)
                tally["stmts_after"] += count_stmts(applied)
                with lt.span("bench.hls.estimate"):
                    results.append(estimate(kernel, config, VU9P))
                with lt.span("bench.cost.features"):
                    extract_features(kernel, config, VU9P)
                with lt.span("bench.cost.analytical_score"):
                    model.score(kernel, config, VU9P)
            tally["points"] += len(points)
            tally["feasible"] += sum(r.feasible for r in results)

            evaluator = TimedEvaluator(compiled, VU9P,
                                       cost_model=TimedModel())
            with evaluator, lt.span("bench.dse.engine_run", app=spec.name):
                run = S2FAEngine(evaluator, space, seed=dse_seed).run()
            with lt.span("bench.dse.final_estimate"):
                estimate(kernel, DesignConfig.from_point(run.best_point),
                         VU9P)
            tally["evaluations"] += run.evaluations
            tally["memo_hits"] += evaluator.cache_hits

            store = CacheStore(scratch / "store" / spec.name)
            digest = evaluator.kernel_digest
            keys = [canonical_key(p) for p in points]
            for key, result in zip(keys, results):
                with lt.span("bench.dse.cache_put"):
                    store.put(digest, key, result.synthesis_minutes,
                              result)
            reopened = CacheStore(scratch / "store" / spec.name)
            reopened.size(digest)           # load the table, untimed
            for key in keys:
                with lt.span("bench.dse.cache_get"):
                    reopened.get(digest, key)
            tally["puts"] += len(keys)
            tally["gets"] += len(keys)

            cached = ExploreConfig(
                seed=dse_seed, cache_dir=str(scratch / "warm" / spec.name))
            S2FASession(cached).explore(spec)           # fill, untimed
            with lt.span("bench.dse.warm_explore", app=spec.name):
                S2FASession(cached).explore(spec)

        # Checkpoint cost: one app is enough for a per-save figure.
        spec = workload.specs[0]
        compiled = compile_spec(spec, spec.layout_config)
        with TimedEvaluator(compiled, VU9P) as evaluator:
            S2FAEngine(evaluator, build_space(compiled), seed=dse_seed,
                       checkpoint_store=TimedCheckpoints(
                           scratch / "ckpt")).run()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lt.index_spans()
    m = lt.metrics
    n_apps = len(workload.specs)
    m["compiler.compile_kernel_s"] = lt.seconds(
        "bench.compiler.compile_kernel")
    m["dse.space_s"] = lt.seconds("bench.dse.space")
    m["dse.space_points"] = math.exp(tally["log_space"] / n_apps)
    m["merlin.apply_s"] = lt.seconds("bench.merlin.apply")
    m["merlin.stmts_after"] = tally["stmts_after"] / tally["points"]
    m["hls.estimate_s"] = lt.seconds("bench.hls.estimate")
    m["hls.estimates_per_s"] = tally["points"] / m["hls.estimate_s"]
    m["hls.feasible_share"] = tally["feasible"] / tally["points"]
    m["cost.features_s"] = lt.seconds("bench.cost.features")
    m["cost.analytical_score_s"] = lt.seconds("bench.cost.analytical_score")
    engine_wall = lt.seconds("bench.dse.engine_run")
    m["dse.evaluations"] = float(tally["evaluations"])
    m["dse.evaluate_s"] = lt.seconds("bench.dse.evaluate")
    m["dse.model_score_s"] = lt.seconds("bench.dse.model_score")
    m["dse.engine_self_s"] = lt.seconds("bench.dse.engine_run",
                                        self_only=True)
    m["dse.points_per_s"] = tally["evaluations"] / engine_wall
    m["dse.memo_hit_share"] = stats.share(
        tally["memo_hits"], tally["memo_hits"] + tally["evaluations"])
    m["dse.cache_put_us"] = (lt.seconds("bench.dse.cache_put")
                             / tally["puts"] * 1e6)
    m["dse.cache_get_us"] = (lt.seconds("bench.dse.cache_get")
                             / tally["gets"] * 1e6)
    m["dse.warm_explore_s"] = lt.seconds("bench.dse.warm_explore")
    saves = [s.duration for s in lt.tracer.iter_spans()
             if s.name == "bench.dse.checkpoint_save"]
    m["dse.checkpoint_save_ms"] = statistics.median(saves) * 1e3
    m["dse.unattributed_s"] = stats.unattributed(
        m["bench.facade_s"],
        {"compile": m["compiler.compile_kernel_s"],
         "space": m["dse.space_s"], "engine": engine_wall,
         "final_estimate": lt.seconds("bench.dse.final_estimate")})


# ----------------------------------------------------------------------
# offload-clean / offload-degraded
# ----------------------------------------------------------------------

def trace_offload(lt: LayerTrace, workload, seconds: float) -> None:
    degraded = isinstance(workload, wl.OffloadDegraded)
    if degraded:
        workload.round_metrics.clear()
    facade_rounds(lt, workload, 0.35 * seconds)
    facade_metrics = (workload.round_metrics if degraded
                      else [workload.runtime.metrics])

    replay_register(lt, [
        (workload.compiled[s.name],
         s.manual_config(workload.compiled[s.name]),
         workload.tasks[s.name][0])
        for s in workload.specs])
    sc, runtime = workload._runtime()               # fault-free replay
    for spec in workload.specs:
        warm(runtime.manager.require(workload.compiled[spec.name].accel_id),
             workload.tasks[spec.name][:1])
    bytes_in = bytes_out = tasks_per_sweep = batches_per_sweep = 0
    for replay in range(OFFLOAD_REPLAYS):
        for spec in workload.specs:
            compiled = workload.compiled[spec.name]
            tasks = workload.tasks[spec.name]
            entry = runtime.manager.require(compiled.accel_id)
            with lt.span("bench.spark.collect", app=spec.name):
                sc.parallelize(tasks).map(lambda t: t).collect()
            batches = oracles.partition_slices(tasks,
                                               wl.OFFLOAD_PARTITIONS)
            replay_offload(lt, entry, batches)
            replay_jvm(lt, compiled, tasks)
            if replay == 0:
                meta = compiled.kernel.metadata
                bytes_in += meta["bytes_in_per_task"] * len(tasks)
                bytes_out += meta["bytes_out_per_task"] * len(tasks)
                tasks_per_sweep += len(tasks)
                batches_per_sweep += len(batches)

    lt.index_spans()
    m = lt.metrics
    register_metrics(lt)
    offload_stage_metrics(lt, float(OFFLOAD_REPLAYS))
    sweeps = wl.DEGRADED_SWEEPS if degraded else 1
    m["blaze.bytes_in"] = float(bytes_in * sweeps)
    m["blaze.bytes_out"] = float(bytes_out * sweeps)
    m["fpga.tasks_per_s"] = tasks_per_sweep / m["fpga.exec_s"]
    # Per-sweep stage seconds -> per-round, weighted by what the facade
    # runtimes actually did (retries re-serialize, corrupt batches run
    # to completion, lost boards fall back to the JVM).  Faults are
    # assumed evenly spread over apps; the residue is unattributed.
    done = sum(x.accel_tasks + x.fallback_tasks for x in facade_metrics)
    per_batch = tasks_per_sweep / batches_per_sweep
    ok = sum(x.accel_tasks for x in facade_metrics) / done
    fell_back = sum(x.fallback_tasks for x in facade_metrics) / done
    executed = ok + sum(x.corrupt_batches
                        for x in facade_metrics) * per_batch / done
    serialized = executed + sum(
        x.transient_faults + x.timeouts + x.devices_lost
        for x in facade_metrics) * per_batch / done
    blaze_counters(lt, facade_metrics,
                   float(len(facade_metrics)) if degraded
                   else done / tasks_per_sweep)
    for key in ("spark.collect_s", "blaze.serialize_s",
                "blaze.deserialize_s", "blaze.frame_verify_s",
                "blaze.bridge_s", "jvm.tac_exec_s", "fpga.exec_s",
                "fpga.board_run_s"):
        m[key] *= sweeps
    m["blaze.offload_unattributed_s"] = stats.unattributed(
        m["bench.facade_s"],
        {"spark": m["spark.collect_s"],
         "serialize": m["blaze.serialize_s"] * serialized,
         "board_run": m["fpga.board_run_s"] * executed,
         "verify": m["blaze.frame_verify_s"] * executed,
         "deserialize": m["blaze.deserialize_s"] * ok,
         "jvm": (m["blaze.bridge_s"] + m["jvm.tac_exec_s"]) * fell_back})


# ----------------------------------------------------------------------
# serve-closed
# ----------------------------------------------------------------------

def trace_serve(lt: LayerTrace, workload, seconds: float) -> None:
    from repro.apps import get_app
    from repro.blaze import BlazeRuntime
    from repro.serve.core import ServeCore
    from repro.serve.request import (
        OP_OFFLOAD,
        ServeRequest,
        decode_line,
        encode_line,
        request_from_wire,
        response_from_wire,
    )
    from repro.spark import SparkContext

    m = lt.metrics
    m["serve.first_request_ms"] = statistics.mean(
        workload.first_request_s.values()) * 1e3
    client = workload.clients[0]
    pings = []
    for _ in range(SERVE_PINGS):
        start = perf()
        client.ping()
        pings.append(perf() - start)
    m["serve.ping_rtt_ms"] = statistics.median(pings) * 1e3

    rounds = facade_rounds(lt, workload, 0.4 * seconds)
    n_round = len(rounds[0].ops)
    socket_latency: dict = {}
    for rnd in rounds:
        for op in rnd.ops:
            socket_latency.setdefault(op.cls, []).append(op.seconds)
    responses = []

    # Same trace through an in-process core: no socket, no threads.
    core = ServeCore()
    trace = wl.serve_trace(workload.seed, 0, SERVE_CORE_REQUESTS)
    for app, _ in wl.SERVE_MIX:                     # design-cache fill
        core.submit(ServeRequest(request_id=f"warm-{app}", op=OP_OFFLOAD,
                                 app=app, n_tasks=wl.SERVE_TASKS,
                                 data_seed=0))
        core.step()
    core_latency: dict = {}
    hits = shed = degraded = 0
    for i, (app, data_seed) in enumerate(trace):
        request = ServeRequest(request_id=f"core-{i}", op=OP_OFFLOAD,
                               tenant="tenant-0", app=app,
                               n_tasks=wl.SERVE_TASKS,
                               data_seed=data_seed)
        with lt.span("bench.serve.core_step", app=app) as span:
            rejection = core.submit(request)
            response = rejection or core.step()
        core_latency.setdefault(app, []).append(span.duration)
        responses.append((request, response))
        hits += response.cache_hit
        shed += response.status == "OVERLOADED"
        degraded += response.degraded
        lt.attempted += 1
        if not (response.status == "OK"
                and oracles.wire_form(response.result)
                == workload.oracle.expected(app, data_seed)):
            lt.failed += 1
            lt.problems.append(
                f"{app}: in-process core answered {response.status} "
                f"or a result that differs from spec.reference")
    m["serve.core_step_ms"] = stats.class_geomean(core_latency, 50) * 1e3
    m["serve.daemon_overhead_ms"] = (
        stats.class_geomean(socket_latency, 50) * 1e3
        - m["serve.core_step_ms"])
    m["serve.cache_hit_share"] = hits / len(trace)
    m["serve.shed_share"] = shed / len(trace)
    m["serve.degraded_share"] = degraded / len(trace)

    # Wire codec: the four conversions one request pays end to end.
    for request, response in responses[:SERVE_WIRE_SAMPLES]:
        fields = {"request_id": request.request_id, "op": request.op,
                  "tenant": request.tenant, "app": request.app,
                  "n_tasks": request.n_tasks,
                  "data_seed": request.data_seed}
        with lt.span("bench.serve.wire"):
            request_from_wire(decode_line(encode_line(fields)))
            response_from_wire(
                decode_line(encode_line(response.to_wire())))

    # The Blaze/FPGA stages under one request, weighted by the mix.
    runtime = BlazeRuntime(SparkContext(default_parallelism=1))
    weights = dict(wl.SERVE_MIX)
    total_weight = sum(weights.values())
    pairs = []
    for app, _ in wl.SERVE_MIX:
        spec = get_app(app)
        pairs.append((spec, compile_spec(
            spec, spec.functional_layout or spec.layout_config)))
    replay_register(lt, [
        (c, s.manual_config(c),
         s.functional_tasks_for(wl.SERVE_TASKS, seed=0)[0])
        for s, c in pairs])
    bytes_in = bytes_out = 0.0
    for spec, compiled in pairs:
        entry = runtime.register(compiled, spec.manual_config(compiled))
        warm(entry, spec.functional_tasks_for(wl.SERVE_TASKS, seed=0))
        # Replay each app as often as the mix sends it per 100 requests.
        for data_seed in range(weights[spec.name]):
            tasks = spec.functional_tasks_for(
                wl.SERVE_TASKS, seed=data_seed % wl.SERVE_DATA_SEEDS)
            replay_offload(lt, entry, [tasks])
            replay_jvm(lt, compiled, tasks)
        meta = compiled.kernel.metadata
        share = weights[spec.name] / total_weight
        bytes_in += meta["bytes_in_per_task"] * wl.SERVE_TASKS * share
        bytes_out += meta["bytes_out_per_task"] * wl.SERVE_TASKS * share

    lt.index_spans()
    # 100 mixed requests were replayed; scale to one round.
    per = total_weight / n_round
    offload_stage_metrics(lt, per)
    m["serve.wire_us"] = (lt.seconds("bench.serve.wire")
                          / min(len(responses), SERVE_WIRE_SAMPLES) * 1e6)
    register_metrics(lt)
    m["blaze.bytes_in"] = bytes_in * n_round
    m["blaze.bytes_out"] = bytes_out * n_round
    m["fpga.tasks_per_s"] = (wl.SERVE_TASKS * n_round) / m["fpga.exec_s"]
    # A closed loop of two clients overlaps client and daemon work, so
    # the round wall is not a sum of stages: the residue is reported
    # against the in-process core instead.
    core_round_s = sum(sum(v) for v in core_latency.values()) \
        / len(trace) * n_round
    m["blaze.offload_unattributed_s"] = stats.unattributed(
        core_round_s,
        {"serialize": m["blaze.serialize_s"],
         "board_run": m["fpga.board_run_s"],
         "verify": m["blaze.frame_verify_s"],
         "deserialize": m["blaze.deserialize_s"]})


# ----------------------------------------------------------------------
# stream-durable
# ----------------------------------------------------------------------

def trace_stream(lt: LayerTrace, workload, seconds: float) -> None:
    from repro import StreamConfig
    from repro.blaze import BlazeRuntime
    from repro.spark import SparkContext
    from repro.streaming import (
        JSONLSink,
        MemorySink,
        SeededSource,
        StreamCheckpointStore,
        decode,
        encode,
    )
    from repro.streaming.codec import canonical_json

    rounds = facade_rounds(lt, workload, 0.35 * seconds)
    records = wl.STREAM_RECORDS
    n_batches = -(-records // wl.STREAM_BATCH)
    m = lt.metrics
    scratch = workload.dir / "replay"
    memory_walls = []
    rows_total = sink_bytes = 0
    deployments = []
    for spec in workload.specs:
        data_seed = workload.seed * 1009 + 7
        compiled = spec.compile(workload.session)

        # Memory sink, no checkpoint: the ceiling without durable writes
        # (and the rows the durable replay below writes).
        config = StreamConfig(batch_records=wl.STREAM_BATCH,
                              total_records=records, data_seed=data_seed)
        sink = wl.TimedSink(MemorySink())
        wl.run_stream(workload.session, spec, config, sink)
        memory_walls.append(sink.stamps[-1] - sink.stamps[0])
        per_batch: dict = {}
        for row in sink.inner.rows:
            per_batch.setdefault(row["batch"], []).append(row)

        # The loop again, batch by batch in the real loop's order —
        # fsync cost depends on what ran since the previous fsync, so
        # the durable stages are only faithful when interleaved with
        # the compute they follow.
        source = SeededSource(spec.generator, seed=data_seed,
                              total=records,
                              chunk_records=spec.chunk_records)
        sc = SparkContext(default_parallelism=config.runtime.partitions)
        entry = BlazeRuntime(sc, device=workload.session.device).register(
            compiled, spec.design_for(compiled))
        first = source.records(0, wl.STREAM_BATCH)
        deployments.append((compiled, spec.design_for(compiled), first[0]))
        warm(entry, first[:1])
        durable = store = None
        if workload.durable:
            durable = JSONLSink(scratch / spec.name / "sink.jsonl")
            store = StreamCheckpointStore(scratch / spec.name / "ckpt")
        identity = {"app": spec.name, "data_seed": data_seed,
                    "batch_records": wl.STREAM_BATCH,
                    "total_records": records,
                    "partitions": config.runtime.partitions}
        state: dict = {}
        lines = []
        for n in range(n_batches):
            with lt.span("bench.streaming.source", app=spec.name):
                batch = source.records(n * wl.STREAM_BATCH,
                                       wl.STREAM_BATCH)
            with lt.span("bench.spark.collect", app=spec.name):
                sc.parallelize(batch).map(lambda t: t).collect()
            replay_offload(lt, entry, oracles.partition_slices(
                batch, config.runtime.partitions))
            rows = per_batch.get(n, [])
            if durable is None:
                continue
            # emit() encodes internally; time the codec alone so its
            # share can be taken out of the sink write below.
            with lt.span("bench.streaming.encode", app=spec.name):
                lines.extend(canonical_json(
                    {"batch": row["batch"], "part": row["part"],
                     "seq": row["seq"], "records": encode(row["records"])})
                    for row in rows)
            with lt.span("bench.streaming.sink_write", app=spec.name):
                for row in rows:
                    durable.emit(row["batch"], row["part"], row["seq"],
                                 row["records"])
                durable.flush_batch()
            if spec.name == "log-filter":       # running per-key state
                for row in rows:
                    state.update(dict(row["records"]))
            payload = {"identity": identity, "next_batch": n + 1,
                       "seq": rows[-1]["seq"] + 1 if rows else 0,
                       "operators": {"0": encode({"state": state})}}
            with lt.span("bench.streaming.checkpoint_save",
                         app=spec.name):
                store.save(spec.name, payload)
        for line in lines:
            with lt.span("bench.streaming.decode", app=spec.name):
                decode(json.loads(line)["records"])
        replay_jvm(lt, compiled, first)
        rows_total += len(sink.inner.rows)
        if durable is not None:
            durable.close()
            sink_bytes += durable.path.stat().st_size
    replay_register(lt, deployments)

    lt.index_spans()
    offload_stage_metrics(lt, 1.0)
    # The JVM path was sampled on one batch per app only.
    m["blaze.bridge_s"] *= n_batches
    m["jvm.tac_exec_s"] *= n_batches
    register_metrics(lt)
    m["fpga.tasks_per_s"] = (records * len(workload.specs)
                             / m["fpga.exec_s"])
    m["streaming.source_s"] = lt.seconds("bench.streaming.source")
    m["streaming.encode_s"] = lt.seconds("bench.streaming.encode")
    m["streaming.decode_s"] = lt.seconds("bench.streaming.decode")
    m["streaming.sink_write_s"] = max(
        0.0, lt.seconds("bench.streaming.sink_write")
        - m["streaming.encode_s"])
    m["streaming.checkpoint_save_s"] = lt.seconds(
        "bench.streaming.checkpoint_save")
    m["streaming.sink_bytes"] = float(sink_bytes)
    m["streaming.rows"] = float(rows_total)
    ops = len(rounds[0].ops)
    m["streaming.records_per_s"] = (
        ops * wl.STREAM_BATCH / m["bench.facade_s"])
    m["streaming.memory_sink_ops_per_s"] = ops / sum(memory_walls)
    m["streaming.loop_unattributed_s"] = stats.unattributed(
        m["bench.facade_s"],
        {"source": m["streaming.source_s"],
         "spark": m["spark.collect_s"],
         "serialize": m["blaze.serialize_s"],
         "board_run": m["fpga.board_run_s"],
         "verify": m["blaze.frame_verify_s"],
         "deserialize": m["blaze.deserialize_s"],
         "encode": m["streaming.encode_s"],
         "sink_write": m["streaming.sink_write_s"],
         "checkpoint": m["streaming.checkpoint_save_s"]})


# ----------------------------------------------------------------------

TRACERS = {
    "compile-sweep": trace_compile,
    "explore-sweep": trace_explore,
    "offload-clean": trace_offload,
    "offload-degraded": trace_offload,
    "serve-closed": trace_serve,
    "stream-memory": trace_stream,
    "stream-durable": trace_stream,
}


def trace_workload(workload, seconds: float, stem: str) -> LayerTrace:
    """Run the traced pass of an already set-up workload."""
    lt = LayerTrace()
    measure_obs(lt)
    with lt.span("bench.workload", workload=workload.name):
        TRACERS[workload.name](lt, workload, seconds)
    lt.export(stem)
    return lt
