"""The benchmark's metric tables: names, units, direction, bounds, and —
for per-layer metrics — which end-to-end metric on which workload each
one should move.  ``BENCHMARK.json`` carries (name, unit, better[, bound]);
``test_bench_e2e.py`` pins that the two agree; the README prints the rest.
"""

from __future__ import annotations

#: (name, unit, better, bound, meaning)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "child-process start to first timed op: interpreter start, import "
     "repro, input generation, object construction, one untimed warm-up "
     "sweep (on serve-closed also daemon spawn + first request per app); "
     "median of three set-ups per run"),
    ("ops_per_s", "op/s", "higher", 0.25,
     "median over the rounds of the quietest tenth of the run of (ops in "
     "round / round wall): time-weighted, heavy apps dominate"),
    ("op_p50_ms", "ms", "lower", 0.25,
     "geometric mean over op classes of the class's median op latency in "
     "the quietest tenth of the run: app-weighted, a 3 ms app counts as "
     "much as AES"),
    ("op_tail_ms", "ms", "lower", 0.25,
     "the same at the workload's fixed tail percentile"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "peak resident set (VmHWM) of the measuring child, plus the daemon's "
     "on serve-closed"),
)

#: (name, unit, better, should move)
PER_LAYER = (
    # -- scala ----------------------------------------------------------
    ("scala.tokenize_s", "s", "lower",
     "ops_per_s, op_p50_ms on compile-sweep; setup_s elsewhere"),
    ("scala.parse_s", "s", "lower", "as scala.tokenize_s"),
    ("scala.frontend_s", "s", "lower", "as scala.tokenize_s"),
    ("scala.tokens", "count", "lower", "explains scala.tokenize_s"),
    # -- jvm ------------------------------------------------------------
    ("jvm.classes", "count", "lower", "IR size after the frontend"),
    ("jvm.instructions", "count", "lower", "IR size after the frontend"),
    ("jvm.lower_s", "s", "lower",
     "setup_s and first-fallback latency on offload-degraded"),
    ("jvm.tac_exec_s", "s", "lower",
     "ops_per_s, op_p50_ms on offload-degraded; not offload-clean"),
    # -- compiler -------------------------------------------------------
    ("compiler.compile_kernel_s", "s", "lower",
     "compile-sweep; <=10% of explore-sweep"),
    ("compiler.lift_s", "s", "lower", "compile-sweep"),
    ("compiler.unattributed_s", "s", "lower",
     "facade wall minus replayed compile stages on compile-sweep"),
    # -- hlsc -----------------------------------------------------------
    ("hlsc.print_s", "s", "lower", "compile-sweep (small)"),
    ("hlsc.lint_s", "s", "lower", "none end to end (lint is test-side)"),
    ("hlsc.stmts", "count", "lower",
     "smaller IR lowers every later pass (merlin, hls)"),
    ("hlsc.c_bytes", "bytes", "lower", "explains hlsc.print_s"),
    # -- merlin ---------------------------------------------------------
    ("merlin.apply_s", "s", "lower", "explore-sweep"),
    ("merlin.stmts_after", "count", "lower", "explains hls cost"),
    # -- hls ------------------------------------------------------------
    ("hls.estimate_s", "s", "lower",
     "explore-sweep; setup_s of the offload workloads (register)"),
    ("hls.estimates_per_s", "1/s", "higher", "explore-sweep"),
    ("hls.feasible_share", "ratio", "higher",
     "none (sanity: the sample is not degenerate)"),
    # -- cost -----------------------------------------------------------
    ("cost.features_s", "s", "lower", "explore-sweep with a surrogate"),
    ("cost.analytical_score_s", "s", "lower", "explore-sweep"),
    # -- dse ------------------------------------------------------------
    ("dse.space_s", "s", "lower", "explore-sweep"),
    ("dse.space_points", "count", "lower",
     "geometric mean of the design-space sizes"),
    ("dse.evaluations", "count", "lower", "explains explore-sweep wall"),
    ("dse.evaluate_s", "s", "lower", "explore-sweep"),
    ("dse.model_score_s", "s", "lower",
     "explore-sweep (cost-model calls inside evaluate and probes)"),
    ("dse.engine_self_s", "s", "lower",
     "explore-sweep (bookkeeping: tuners, partitions, stopping)"),
    ("dse.points_per_s", "1/s", "higher", "explore-sweep"),
    ("dse.memo_hit_share", "ratio", "higher", "explore-sweep"),
    ("dse.cache_put_us", "us", "lower",
     "explore with cache_dir (not in explore-sweep)"),
    ("dse.cache_get_us", "us", "lower", "dse.warm_explore_s"),
    ("dse.warm_explore_s", "s", "lower",
     "explore on a warm cache_dir (not in explore-sweep)"),
    ("dse.checkpoint_save_ms", "ms", "lower",
     "explore with checkpoint_dir (not in explore-sweep)"),
    ("dse.unattributed_s", "s", "lower",
     "facade wall minus replayed explore stages on explore-sweep"),
    # -- spark ----------------------------------------------------------
    ("spark.collect_s", "s", "lower",
     "op_p50_ms on offload-clean, stream-memory"),
    # -- blaze ----------------------------------------------------------
    ("blaze.register_s", "s", "lower", "setup_s of offload workloads"),
    ("blaze.serialize_s", "s", "lower",
     "op_p50_ms on offload-clean, serve-closed, stream-memory"),
    ("blaze.deserialize_s", "s", "lower", "as blaze.serialize_s"),
    ("blaze.frame_verify_s", "s", "lower", "as blaze.serialize_s"),
    ("blaze.bridge_s", "s", "lower", "offload-degraded (to_jvm/from_jvm)"),
    ("blaze.offload_unattributed_s", "s", "lower",
     "facade wall minus replayed offload stages"),
    ("blaze.bytes_in", "bytes", "lower", "explains blaze.serialize_s"),
    ("blaze.bytes_out", "bytes", "lower", "explains blaze.deserialize_s"),
    ("blaze.retries", "count", "lower", "explains offload-degraded"),
    ("blaze.quarantines", "count", "lower", "explains offload-degraded"),
    ("blaze.fallback_share", "ratio", "lower",
     "must stay >= 0.5 on offload-degraded, 0 on offload-clean"),
    # -- fpga -----------------------------------------------------------
    ("fpga.build_s", "s", "lower", "setup_s of offload workloads"),
    ("fpga.exec_s", "s", "lower",
     "ops_per_s on offload-clean; small on serve-closed; none on "
     "compile-sweep, explore-sweep"),
    ("fpga.board_run_s", "s", "lower", "as fpga.exec_s"),
    ("fpga.tasks_per_s", "1/s", "higher", "ops_per_s on offload-clean"),
    ("fpga.faults_injected", "count", "lower",
     "explains offload-degraded"),
    # -- serve ----------------------------------------------------------
    ("serve.wire_us", "us", "lower", "op_p50_ms on serve-closed"),
    ("serve.core_step_ms", "ms", "lower", "op_p50_ms on serve-closed"),
    ("serve.daemon_overhead_ms", "ms", "lower",
     "op_p50_ms, op_tail_ms on serve-closed"),
    ("serve.ping_rtt_ms", "ms", "lower", "floor of serve-closed latency"),
    ("serve.first_request_ms", "ms", "lower", "setup_s on serve-closed"),
    ("serve.cache_hit_share", "ratio", "higher", "serve-closed"),
    ("serve.shed_share", "ratio", "lower", "failed ops on serve-closed"),
    ("serve.degraded_share", "ratio", "lower", "serve-closed"),
    # -- streaming ------------------------------------------------------
    ("streaming.source_s", "s", "lower", "stream-memory"),
    ("streaming.encode_s", "s", "lower", "stream-durable"),
    ("streaming.decode_s", "s", "lower", "none (resume/readers only)"),
    ("streaming.sink_write_s", "s", "lower",
     "ops_per_s, op_tail_ms on stream-durable"),
    ("streaming.checkpoint_save_s", "s", "lower",
     "ops_per_s, op_tail_ms on stream-durable"),
    ("streaming.loop_unattributed_s", "s", "lower",
     "facade wall minus replayed stream stages"),
    ("streaming.sink_bytes", "bytes", "lower",
     "explains streaming.sink_write_s"),
    ("streaming.rows", "count", "lower", "explains streaming.encode_s"),
    ("streaming.records_per_s", "1/s", "higher", "stream-durable"),
    ("streaming.memory_sink_ops_per_s", "op/s", "higher",
     "ops_per_s on stream-memory; ceiling of stream-durable"),
    # -- obs ------------------------------------------------------------
    ("obs.null_span_ns", "ns", "lower", "must stay flat everywhere"),
    ("obs.span_ns", "ns", "lower", "traced runs only"),
    ("obs.trace_overhead_share", "ratio", "lower",
     "(traced - untraced facade wall) / untraced, per workload"),
    # -- the traced run itself ------------------------------------------
    ("bench.facade_s", "s", "lower",
     "untraced facade wall per round: the denominator of layer shares"),
    ("bench.round_ops", "count", "higher",
     "ops in one round of the traced workload"),
)

END_TO_END_NAMES = tuple(row[0] for row in END_TO_END)
PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}

