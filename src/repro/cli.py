"""Command-line interface: ``python -m repro.cli`` (or the ``s2fa`` script).

The CLI is a pure argv -> config translation: each subcommand builds an
:class:`~repro.config.ExploreConfig` / :class:`~repro.config.RuntimeConfig`
pair, hands them to an :class:`~repro.s2fa.S2FASession`, and prints the
result.  Every pipeline subcommand accepts ``--trace FILE`` to record a
span trace of the whole run (Chrome ``trace_event`` JSON by default,
JSONL span log when the file ends in ``.jsonl``).

Subcommands
-----------

``compile KERNEL.scala``
    Run the bytecode-to-C compiler and print the generated HLS C.

``explore KERNEL.scala``
    Run the full flow (compile + design space exploration) and print the
    DSE summary, the chosen configuration, and the annotated C.

``dse APP``
    The end-to-end pipeline for a built-in application: explore the
    design space, deploy the explored design on the Blaze runtime, and
    verify the offloaded results against the pure-JVM oracle.

``apps``
    List the built-in evaluation applications.

``report APP``
    Compile a built-in application, estimate its expert manual design, and
    print the HLS report.

``run APP``
    Deploy a built-in application on the Spark + Blaze runtime, offload a
    workload, cross-check the collected results against the pure-JVM
    oracle, and print the runtime metrics.  ``--fault-plan``/
    ``--fault-seed`` inject a deterministic device-fault schedule (see
    ``repro.fpga.faults``); the results must stay bit-identical, only the
    metrics change.

``stream APP``
    Run a registered streaming pipeline (``lr-stream``, ``aes-window``,
    ``log-filter``) as micro-batches on the virtual clock: accelerated
    stages offload through the resilient Blaze path, the sink is
    idempotent per ``(batch_id, partition)``, and with
    ``--checkpoint-dir`` the run is crash-safe and exactly-once —
    SIGINT/SIGTERM flush a boundary checkpoint and exit
    ``EXIT_INTERRUPTED``, and ``--resume`` continues to a sink
    byte-identical to an uninterrupted run, under any fault schedule.

``dataset build|train|eval``
    The learned-cost-model pipeline: ``build`` sweeps kernels x sampled
    Merlin configs through the analytical estimator into a versioned
    JSONL dataset (deterministic per seed, resumable); ``train`` fits a
    pure-python surrogate (ridge or gradient-boosted stumps) and writes
    a model artifact with a rank-fidelity report; ``eval`` re-scores an
    artifact against a dataset.  ``explore``/``dse`` accept
    ``--surrogate MODEL.json`` to prune proposal batches with the
    learned model (the reported optimum stays analytically verified).

``trace summarize FILE``
    Per-stage breakdown, top-N slowest spans, and flamegraph of a trace
    written by ``--trace`` (either format).

``serve``
    Multi-tenant accelerator daemon over a unix socket: bounded
    admission queues with explicit ``OVERLOADED`` shedding, per-tenant
    weighted-round-robin scheduling, per-request deadlines, per-kernel
    circuit breaking, a content-addressed design cache, and graceful
    drain on SIGTERM (in-flight work finishes, queued requests get a
    clean retryable rejection, state is flushed, exit code
    ``EXIT_INTERRUPTED``).  ``--simulate`` instead runs the
    deterministic virtual-time load harness in-process and prints
    p50/p99 latency, shed rate, and board utilization.

``fuzz``
    Differential fuzzing of the whole compiler: generate random
    well-typed kernels, run them through the JVM interpreter and the
    HLS-C executor, demand bit-identical results, and metamorphically
    check randomized Merlin transforms.  ``--corpus DIR`` first replays
    every committed regression entry in DIR, then writes minimized
    crash artifacts there for any new failure; ``--replay-only`` skips
    generation (the CI regression job).

Layout capacities for variable-length leaves are given as repeated
``--length path=N`` options, e.g. ``--length in._2=16 --length out=16``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .compiler.interface import LayoutConfig
from .errors import ExplorationInterrupted, S2FAError, StreamInterrupted

# ----------------------------------------------------------------------
# Process exit codes.  Pinned so schedulers and CI can distinguish
# "preempted but resumable" from "failed":
#
# * EXIT_OK          — success;
# * EXIT_FAILURE     — the pipeline ran but its outcome is wrong
#                      (offloaded results diverge from the JVM oracle);
# * EXIT_USAGE       — bad command line (argparse's own convention);
# * EXIT_ERROR       — an :class:`~repro.errors.S2FAError` (compile,
#                      DSE, or runtime failure);
# * EXIT_INTERRUPTED — the exploration was interrupted *after* flushing
#                      a checkpoint: rerun with ``--resume`` to finish
#                      (the value is BSD's EX_TEMPFAIL, the conventional
#                      "transient failure, retry" code).
# ----------------------------------------------------------------------

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_ERROR = 3
EXIT_INTERRUPTED = 75


def _parse_lengths(pairs: list[str]) -> LayoutConfig:
    lengths: dict[str, int] = {}
    string_length = 128
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--length expects path=N, got {pair!r}")
        path, _, value = pair.partition("=")
        if path == "string":
            string_length = int(value)
        else:
            lengths[path] = int(value)
    return LayoutConfig(lengths=lengths,
                        default_string_length=string_length)


def _parse_device_list(spec) -> tuple:
    """``"a,b,c"`` -> ``("a", "b", "c")`` (names validated downstream
    against the device registry, which raises the typed
    :class:`~repro.errors.UnknownDeviceError` listing valid names)."""
    if not spec:
        return ()
    return tuple(name.strip() for name in spec.split(",") if name.strip())


def _read_source(path: str) -> str:
    source = Path(path)
    if not source.exists():
        raise SystemExit(f"no such kernel file: {path}")
    return source.read_text()


# ----------------------------------------------------------------------
# argv -> config translation
# ----------------------------------------------------------------------

def _explore_config(args: argparse.Namespace):
    from .config import ExploreConfig

    return ExploreConfig(
        seed=getattr(args, "seed", 0),
        time_limit_minutes=getattr(args, "time_limit", 240.0),
        cache_dir=getattr(args, "cache_dir", None),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        resume=bool(getattr(args, "resume", False)),
        surrogate=getattr(args, "surrogate", None),
        prune_fraction=getattr(args, "prune_fraction", 0.5),
        device=getattr(args, "device", None) or "xcvu9p")


def _dataset_config(args: argparse.Namespace):
    from .config import DatasetConfig

    return DatasetConfig(
        out=args.out,
        seed=getattr(args, "seed", 0),
        kernels=getattr(args, "kernels", 4),
        configs=getattr(args, "configs", 64),
        apps=not getattr(args, "no_apps", False),
        cache_dir=getattr(args, "cache_dir", None),
        resume=bool(getattr(args, "resume", False)))


def _runtime_config(args: argparse.Namespace):
    from .config import RuntimeConfig

    return RuntimeConfig(
        partitions=getattr(args, "partitions", 4),
        fault_plan=getattr(args, "fault_plan", None),
        fault_seed=getattr(args, "fault_seed", 0),
        engine=getattr(args, "engine", None))


def _session(args: argparse.Namespace):
    from .s2fa import S2FASession

    return S2FASession(explore=_explore_config(args),
                       runtime=_runtime_config(args),
                       trace=bool(getattr(args, "trace", None)))


def _require_app(name: str):
    from .apps import get_app

    try:
        return get_app(name)
    except KeyError as exc:
        raise SystemExit(str(exc)) from None


def _export_trace(session, args: argparse.Namespace) -> None:
    if getattr(args, "trace", None):
        spans = session.export_trace(args.trace)
        print(f"trace written to {args.trace} ({spans} spans)")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_compile(args: argparse.Namespace) -> int:
    """``s2fa compile``: Scala kernel file -> generated HLS C."""
    source = _read_source(args.kernel)
    print(_session(args).hls_c(
        source,
        layout_config=_parse_lengths(args.length),
        pattern=args.pattern,
        batch_size=args.batch_size))
    return 0


def _print_explore_summary(build, run) -> None:
    print(f"accelerator id    : {build.accel_id}")
    if run.resumed:
        print("resumed           : from checkpoint")
    print(f"design space      : {build.space.size():,} points")
    print(f"HLS evaluations   : {run.evaluations} "
          f"({run.termination_minutes:.0f} virtual minutes, "
          f"{len(run.partitions)} partitions)")
    stats = run.surrogate_stats
    if stats:
        print(f"surrogate         : {stats['model']} "
              f"pruned {stats['pruned']} "
              f"(revalidated {stats['revalidated']}, "
              f"promoted {stats['promoted']})")
    print(f"best design       : {build.config.describe()}")
    hls = build.hls
    print(f"cycles/batch      : {hls.cycles} @ {hls.freq_mhz:.0f} MHz")
    print("utilization       : "
          + ", ".join(f"{k.upper()} {hls.utilization_percent(k)}%"
                      for k in ("bram", "dsp", "ff", "lut")))


def cmd_explore(args: argparse.Namespace) -> int:
    """``s2fa explore``: compile + DSE, print the chosen design."""
    source = _read_source(args.kernel)
    session = _session(args)
    build = session.explore(
        source,
        layout_config=_parse_lengths(args.length),
        pattern=args.pattern,
        batch_size=args.batch_size)
    run = build.dse
    _print_explore_summary(build, run)
    if run.evaluator_stats:
        from .report import evaluation_stats_table

        print()
        print(evaluation_stats_table(run.evaluator_stats))
    if args.emit_c:
        print()
        print(build.hls_c_source())
    if args.json:
        Path(args.json).write_text(run.to_json())
        print(f"DSE run written to {args.json}")
    _export_trace(session, args)
    return 0


def _print_device_sweep(sweep) -> None:
    from .hls.device import get_device

    explored = sorted(set(sweep.builds) | set(sweep.failures),
                      key=lambda n: (get_device(n).unit_price, n))
    print("device sweep      :")
    for name in explored:
        device = get_device(name)
        build = sweep.builds.get(name)
        if build is None:
            detail = f"no feasible design ({sweep.failures[name]})"
        elif sweep.qualifies(name):
            detail = (f"{build.hls.normalized_cycles:,.0f} norm-cycles "
                      f"(meets target)")
        else:
            detail = (f"{build.hls.normalized_cycles:,.0f} norm-cycles "
                      f"(misses target)")
        marker = "  <- cheapest" if name == sweep.chosen else ""
        print(f"  {name:12s} price {device.unit_price:4.2f} : "
              f"{detail}{marker}")


def cmd_dse(args: argparse.Namespace) -> int:
    """``s2fa dse``: explore + deploy the explored design on Blaze.

    With ``--devices a,b,c`` the device becomes a DSE dimension: every
    named board is explored independently and the *cheapest* board whose
    best design meets ``--qor-target`` (any feasible design when no
    target is given) wins the deployment.
    """
    spec = _require_app(args.app)
    session = _session(args)
    device = None
    devices = _parse_device_list(getattr(args, "devices", None))
    if devices:
        sweep = session.explore_devices(
            spec, list(devices),
            qor_target=getattr(args, "qor_target", None))
        _print_device_sweep(sweep)
        build = sweep.best          # DSEError when nothing qualified
        device = build.device
        print(f"selected device   : {device.name} "
              f"(price {device.unit_price:g})")
    else:
        build = session.explore(spec)
    _print_explore_summary(build, build.dse)
    outcome = session.run(spec, tasks=args.tasks,
                          data_seed=args.data_seed, config=build.config,
                          device=device)
    print(f"deployment        : {outcome.task_count} tasks on "
          f"{outcome.partitions} partitions")
    print(f"results match JVM : "
          f"{'yes (bit-identical)' if outcome.matched else 'NO'}")
    if args.metrics:
        from .report import blaze_metrics_table

        print()
        print(blaze_metrics_table(outcome.metrics))
    _export_trace(session, args)
    return EXIT_OK if outcome.matched else EXIT_FAILURE


def cmd_apps(args: argparse.Namespace) -> int:
    """``s2fa apps``: list the built-in evaluation applications."""
    from .apps import ALL_APPS

    for spec in ALL_APPS:
        print(f"{spec.name:8s} {spec.kind:15s} batch={spec.batch_size:<6d} "
              f"pattern={spec.pattern}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``s2fa report``: HLS report of a built-in app's manual design."""
    from .apps import get_app
    from .hls import estimate

    try:
        spec = get_app(args.app)
    except KeyError as exc:
        raise SystemExit(str(exc)) from None
    compiled = spec.compile()
    result = estimate(compiled.kernel, spec.manual_config(compiled))
    print(f"{spec.name} ({spec.kind}), expert manual design:")
    print(f"  feasible : {result.feasible} {result.infeasible_reason}")
    print(f"  cycles   : {result.cycles} per {compiled.batch_size}-task "
          f"batch")
    print(f"  clock    : {result.freq_mhz:.0f} MHz")
    print(f"  BRAM/DSP/FF/LUT : "
          + "/".join(f"{result.utilization_percent(k)}%"
                     for k in ("bram", "dsp", "ff", "lut")))
    print(f"  memory bound    : {result.memory_bound}")
    for loop in result.loops:
        ii = f"II={loop.ii}" if loop.ii is not None else "no pipeline"
        print(f"    {loop.label:12s} trip={loop.trip_count} "
              f"x{loop.parallel} {ii:8s} lat={loop.latency} ({loop.note})")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``s2fa run``: deploy an app on Blaze, offload, verify, report."""
    from .report import blaze_metrics_table

    spec = _require_app(args.app)
    session = _session(args)
    outcome = session.run(spec, tasks=args.tasks,
                          data_seed=args.data_seed)
    print(f"{outcome.app}: {outcome.task_count} tasks on "
          f"{outcome.partitions} partitions")
    if outcome.fault_plan is not None:
        print(f"fault plan        : {outcome.fault_plan.describe()}")
    print(f"results match JVM : "
          f"{'yes (bit-identical)' if outcome.matched else 'NO'}")
    print()
    print(blaze_metrics_table(outcome.metrics))
    _export_trace(session, args)
    return EXIT_OK if outcome.matched else EXIT_FAILURE


def cmd_fuzz(args: argparse.Namespace) -> int:
    """``s2fa fuzz``: differential + metamorphic compiler fuzzing."""
    from .fuzz import FuzzConfig, load_regressions, replay_entry, \
        run_campaign

    failed = False

    if args.corpus:
        entries = load_regressions(args.corpus)
        for entry in entries:
            ok, detail = replay_entry(entry)
            status = "ok" if ok else f"FAIL ({detail})"
            print(f"replay {entry.path.name if entry.path else entry.name}"
                  f" : {status}")
            failed = failed or not ok
        if entries:
            print(f"corpus : {len(entries)} entries replayed")
    if args.replay_only:
        if not args.corpus:
            raise SystemExit("--replay-only requires --corpus DIR")
        return EXIT_FAILURE if failed else EXIT_OK

    config = FuzzConfig(
        iterations=args.iterations,
        seed=args.seed,
        corpus_dir=Path(args.corpus) if args.corpus else None,
        n_tasks=args.tasks,
        check_metamorphic=not args.no_metamorphic,
        minimize=not args.no_minimize,
        max_failures=args.max_failures)
    report = run_campaign(config)
    print(f"fuzz   : {report.kernels} kernels, seed {report.seed}")
    print("features          : "
          + ", ".join(f"{k}={v}"
                      for k, v in sorted(report.features.items())))
    if report.transform_kinds:
        print("transform kinds   : "
              + ", ".join(f"{k}={v}" for k, v
                          in sorted(report.transform_kinds.items())))
    print(f"failures          : {len(report.failures)}")
    for failure in report.failures:
        print(f"  [{failure.iteration}] {failure.kind} "
              f"{failure.stage}: {failure.detail}")
        if failure.artifact_dir is not None:
            print(f"      artifact: {failure.artifact_dir}")
        if failure.minimized_lines is not None:
            print(f"      minimized to {failure.minimized_lines} lines")
    return EXIT_FAILURE if (failed or report.failures) else EXIT_OK


def _stream_config(args: argparse.Namespace):
    from .config import StreamConfig

    return StreamConfig(
        batch_records=args.batch_records,
        interval_seconds=args.interval,
        total_records=args.records,
        max_batches=args.batches,
        data_seed=args.data_seed,
        max_lag_intervals=args.max_lag,
        sink=args.sink,
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        resume=bool(getattr(args, "resume", False)),
        runtime=_runtime_config(args))


def cmd_stream(args: argparse.Namespace) -> int:
    """``s2fa stream``: run a streaming pipeline to completion."""
    from .apps import get_stream_app

    try:
        spec = get_stream_app(args.app)
    except KeyError as exc:
        raise SystemExit(str(exc)) from None
    session = _session(args)
    outcome = session.stream(spec, _stream_config(args))
    latencies = sorted(outcome.batch_latencies)

    def pct(p: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1,
                             int(p * len(latencies)))]

    print(f"{outcome.app}: {outcome.batches} micro-batches, "
          f"{outcome.records_in} records in, "
          f"{outcome.rows_emitted} sink rows"
          + (" (resumed)" if outcome.resumed else ""))
    print(f"throughput        : {outcome.throughput_rps:.0f} records/s "
          f"(virtual)")
    print(f"batch latency     : p50 {pct(0.50) * 1e3:.3f} ms, "
          f"p99 {pct(0.99) * 1e3:.3f} ms")
    if outcome.duplicates_skipped:
        print(f"replayed rows     : {outcome.duplicates_skipped} "
              "(skipped by the idempotent sink)")
    if outcome.lagging_batches:
        recovered = ", ".join(f"{r * 1e3:.1f} ms"
                              for r in outcome.recovery_seconds)
        print(f"backpressure      : {outcome.lagging_batches} LAGGING "
              f"batches"
              + (f", recovered in {recovered}" if recovered else ""))
    if args.metrics:
        from .report import blaze_metrics_table

        print()
        print(blaze_metrics_table(outcome.metrics))
    _export_trace(session, args)
    return EXIT_OK


def _serve_config(args: argparse.Namespace):
    from .config import ServeConfig

    weights = {}
    for pair in getattr(args, "tenant_weight", None) or []:
        if "=" not in pair:
            raise SystemExit(f"--tenant-weight expects TENANT=W, "
                             f"got {pair!r}")
        tenant, _, weight = pair.partition("=")
        weights[tenant] = int(weight)
    return ServeConfig(
        queue_depth=args.queue_depth,
        tenant_weights=weights,
        replicas=args.replicas,
        default_deadline_s=args.default_deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
        device=getattr(args, "device", None) or "xcvu9p",
        fleet_devices=_parse_device_list(
            getattr(args, "fleet_devices", None)),
        runtime=_runtime_config(args))


def cmd_serve(args: argparse.Namespace) -> int:
    """``s2fa serve``: the multi-tenant daemon (or its load harness)."""
    config = _serve_config(args)
    if args.simulate:
        from .serve.loadgen import LoadProfile, run_profile

        profile = LoadProfile(
            clients=args.clients, tenants=args.tenants,
            requests_per_client=args.requests_per_client,
            mean_interarrival_s=args.mean_interarrival,
            n_tasks=args.tasks, deadline_s=args.deadline,
            seed=args.seed)
        _, report = run_profile(profile, config,
                                verify=not args.no_verify)
        print(report.summary())
        broken = report.lost or report.duplicates or report.mismatches
        return EXIT_FAILURE if broken else EXIT_OK
    if not args.socket:
        raise SystemExit("serve needs --socket PATH (or --simulate)")
    from .serve.daemon import run_daemon

    print(f"s2fa serve: listening on {args.socket} "
          f"(queue depth {config.queue_depth}, "
          f"{config.replicas} replicas/kernel)")
    return run_daemon(args.socket, config, state_path=args.state,
                      ready_path=args.ready)


def _print_fidelity(report) -> None:
    print(f"fidelity (holdout): spearman {report.spearman:.3f}, "
          f"mse {report.mse:.3f} "
          f"({report.count} records, {report.infeasible} infeasible)")
    for k, recall in sorted(report.top_k_recall.items()):
        print(f"  top-{k} recall   : {recall:.2f}")


def cmd_dataset_build(args: argparse.Namespace) -> int:
    """``s2fa dataset build``: sweep kernels x configs into JSONL."""
    from .dataset import build_dataset

    report = build_dataset(_dataset_config(args))
    print(f"dataset           : {report.path}")
    print(f"records written   : {report.records} "
          f"({report.infeasible} infeasible, "
          f"{report.minutes_total:.0f} virtual minutes)")
    print(f"kernels swept     : {report.kernels}")
    if report.skipped_existing:
        print(f"resume            : {report.skipped_existing} records "
              "already present, skipped")
    for name, detail in report.failed_kernels:
        print(f"kernel {name} skipped: {detail}")
    return EXIT_OK


def cmd_dataset_train(args: argparse.Namespace) -> int:
    """``s2fa dataset train``: fit a surrogate, write the artifact."""
    from .dataset import read_records, train_surrogate

    records, skipped = read_records(args.dataset)
    if skipped:
        print(f"warning: skipped {skipped} corrupt records",
              file=sys.stderr)
    params = {}
    if args.model == "ridge":
        params["alpha"] = args.alpha
    else:
        params["n_trees"] = args.trees
        params["max_depth"] = args.depth
    surrogate, report = train_surrogate(records, model=args.model,
                                        **params)
    surrogate.save(args.out)
    print(f"surrogate         : {args.out} ({surrogate.identity()})")
    print(f"trained on        : {len(records)} records")
    _print_fidelity(report)
    if args.min_spearman is not None \
            and report.spearman < args.min_spearman:
        print(f"FAIL: spearman {report.spearman:.3f} < floor "
              f"{args.min_spearman}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_dataset_eval(args: argparse.Namespace) -> int:
    """``s2fa dataset eval``: fidelity of an artifact on a dataset."""
    from .cost import SurrogateCostModel
    from .dataset import fidelity_of, read_records

    surrogate = SurrogateCostModel.load(args.surrogate)
    records, skipped = read_records(args.dataset)
    if skipped:
        print(f"warning: skipped {skipped} corrupt records",
              file=sys.stderr)
    report = fidelity_of(surrogate.model, records)
    print(f"surrogate         : {surrogate.identity()}")
    _print_fidelity(report)
    if args.min_spearman is not None \
            and report.spearman < args.min_spearman:
        print(f"FAIL: spearman {report.spearman:.3f} < floor "
              f"{args.min_spearman}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    """``s2fa trace summarize``: per-stage breakdown of a trace file."""
    from .obs import load_trace, summarize

    if not Path(args.file).exists():
        raise SystemExit(f"no such trace file: {args.file}")
    try:
        roots = load_trace(args.file)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(summarize(roots, top=args.top, flame=not args.no_flame))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=("tac", "stack"),
                        default=None,
                        help="functional execution engine: 'tac' = "
                             "flattened register-IR engines (default), "
                             "'stack' = the original stack/tree "
                             "interpreters (the differential oracles); "
                             "also settable via $S2FA_ENGINE")


def _add_device_flag(parser: argparse.ArgumentParser) -> None:
    from .hls.device import device_names

    parser.add_argument("--device", metavar="NAME",
                        help="target device model (registered: "
                             + ", ".join(device_names())
                             + "; default xcvu9p); an unknown name "
                             "fails with the registered list")


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE",
                        help="record a span trace of the whole run "
                             "(Chrome trace_event JSON; *.jsonl for the "
                             "span log)")


def _add_checkpoint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", metavar="DIR",
                        help="crash-safe exploration: journal the "
                             "explorer state here at every batch "
                             "boundary (SIGINT/SIGTERM then exit "
                             f"{EXIT_INTERRUPTED} with a resumable "
                             "checkpoint); implies --cache-dir DIR "
                             "unless one is given")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the checkpoint in "
                             "--checkpoint-dir if one exists (starts "
                             "fresh otherwise)")


def _add_surrogate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--surrogate", metavar="MODEL.json",
                        help="learned cost-model artifact (from 's2fa "
                             "dataset train'); the engine prunes each "
                             "proposal batch by its predictions, but "
                             "every reported design is still "
                             "analytically scored")
    parser.add_argument("--prune-fraction", type=float, default=0.5,
                        help="fraction of each unseen batch the "
                             "surrogate may prune, in [0, 1) "
                             "(default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line interface."""
    parser = argparse.ArgumentParser(
        prog="s2fa",
        description="S2FA: Spark-to-FPGA-Accelerator automation "
                    "(DAC'18 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser("compile",
                               help="Scala kernel -> HLS C")
    compile_p.add_argument("kernel")
    compile_p.add_argument("--length", action="append", metavar="PATH=N")
    compile_p.add_argument("--pattern", default="map",
                           choices=("map", "reduce", "filter"))
    compile_p.add_argument("--batch-size", type=int, default=1024)
    compile_p.set_defaults(func=cmd_compile)

    explore_p = sub.add_parser("explore",
                               help="compile + design space exploration")
    explore_p.add_argument("kernel")
    explore_p.add_argument("--length", action="append", metavar="PATH=N")
    explore_p.add_argument("--pattern", default="map",
                           choices=("map", "reduce", "filter"))
    explore_p.add_argument("--batch-size", type=int, default=1024)
    explore_p.add_argument("--seed", type=int, default=0)
    explore_p.add_argument("--time-limit", type=float, default=240.0,
                           help="virtual minutes (default 240)")
    explore_p.add_argument("--cache-dir", metavar="DIR",
                           help="persistent evaluation cache directory "
                                "(repeated runs skip re-estimation)")
    _add_device_flag(explore_p)
    _add_checkpoint_flags(explore_p)
    _add_surrogate_flags(explore_p)
    explore_p.add_argument("--emit-c", action="store_true",
                           help="print the annotated HLS C")
    explore_p.add_argument("--json", metavar="FILE",
                           help="write the DSE run (trace, partitions, "
                                "best design) as JSON")
    _add_trace_flag(explore_p)
    explore_p.set_defaults(func=cmd_explore)

    dse_p = sub.add_parser(
        "dse", help="end-to-end pipeline: explore a built-in app and "
                    "deploy the explored design on Blaze")
    dse_p.add_argument("app")
    dse_p.add_argument("--seed", type=int, default=0)
    dse_p.add_argument("--time-limit", type=float, default=240.0,
                       help="virtual minutes (default 240)")
    dse_p.add_argument("--cache-dir", metavar="DIR",
                       help="persistent evaluation cache directory")
    _add_device_flag(dse_p)
    dse_p.add_argument("--devices", metavar="A,B,C",
                       help="comma-separated registered device names: "
                            "explore (device x config) and deploy on "
                            "the cheapest board meeting --qor-target")
    dse_p.add_argument("--qor-target", type=float, default=None,
                       metavar="CYCLES",
                       help="QoR bar for --devices: best design must "
                            "reach this normalized cycle count or "
                            "better (default: any feasible design)")
    _add_checkpoint_flags(dse_p)
    _add_surrogate_flags(dse_p)
    dse_p.add_argument("--tasks", type=int, default=64,
                       help="deployment workload size (default 64)")
    dse_p.add_argument("--data-seed", type=int, default=21,
                       help="workload generator seed (default 21)")
    dse_p.add_argument("--partitions", type=int, default=4,
                       help="Spark partitions (default 4)")
    dse_p.add_argument("--metrics", action="store_true",
                       help="print the Blaze runtime metrics table")
    _add_engine_flag(dse_p)
    _add_trace_flag(dse_p)
    dse_p.set_defaults(func=cmd_dse)

    apps_p = sub.add_parser("apps", help="list built-in applications")
    apps_p.set_defaults(func=cmd_apps)

    report_p = sub.add_parser("report",
                              help="HLS report of a built-in app")
    report_p.add_argument("app")
    report_p.set_defaults(func=cmd_report)

    run_p = sub.add_parser(
        "run", help="deploy a built-in app on the Blaze runtime")
    run_p.add_argument("app")
    run_p.add_argument("--tasks", type=int, default=64,
                       help="workload size (default 64)")
    run_p.add_argument("--data-seed", type=int, default=21,
                       help="workload generator seed (default 21)")
    run_p.add_argument("--partitions", type=int, default=4,
                       help="Spark partitions (default 4)")
    run_p.add_argument("--fault-plan", metavar="SPEC",
                       help="device fault schedule, e.g. "
                            "'transient=0.2,hang=0.05,corrupt=0.1,"
                            "lose_after=40'")
    run_p.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the fault schedule (default 0)")
    _add_device_flag(run_p)
    _add_engine_flag(run_p)
    _add_trace_flag(run_p)
    run_p.set_defaults(func=cmd_run)

    stream_p = sub.add_parser(
        "stream", help="run a streaming pipeline (micro-batched, "
                       "exactly-once) on the Blaze runtime")
    stream_p.add_argument("app",
                          help="streaming app: lr-stream, aes-window, "
                               "or log-filter")
    stream_p.add_argument("--batch-records", type=int, default=32,
                          help="source records per micro-batch "
                               "(default 32)")
    stream_p.add_argument("--interval", type=float, default=0.05,
                          metavar="SECONDS",
                          help="micro-batch interval, virtual seconds "
                               "(default 0.05)")
    stream_p.add_argument("--records", type=int, default=256,
                          help="bounded source size (default 256)")
    stream_p.add_argument("--batches", type=int, default=None,
                          help="hard cap on micro-batches (default: "
                               "until the source is exhausted)")
    stream_p.add_argument("--data-seed", type=int, default=21,
                          help="record generator seed (default 21)")
    stream_p.add_argument("--max-lag", type=float, default=2.0,
                          metavar="INTERVALS",
                          help="LAGGING threshold in batch intervals "
                               "(default 2.0)")
    stream_p.add_argument("--sink", metavar="FILE",
                          help="append sink rows to this JSONL file "
                               "(default: in-memory)")
    stream_p.add_argument("--partitions", type=int, default=4,
                          help="Spark partitions (default 4)")
    stream_p.add_argument("--fault-plan", metavar="SPEC",
                          help="device fault schedule, e.g. "
                               "'transient=0.2,hang=0.05,lose_after=40'")
    stream_p.add_argument("--fault-seed", type=int, default=0,
                          help="seed of the fault schedule (default 0)")
    stream_p.add_argument("--checkpoint-dir", metavar="DIR",
                          help="crash-safe exactly-once streaming: "
                               "checkpoint source offsets + operator "
                               "state here after every micro-batch "
                               "(SIGINT/SIGTERM then exit "
                               f"{EXIT_INTERRUPTED} resumable)")
    stream_p.add_argument("--resume", action="store_true",
                          help="resume from the checkpoint in "
                               "--checkpoint-dir if one exists")
    stream_p.add_argument("--metrics", action="store_true",
                          help="print the Blaze runtime metrics table")
    _add_engine_flag(stream_p)
    _add_trace_flag(stream_p)
    stream_p.set_defaults(func=cmd_stream)

    fuzz_p = sub.add_parser(
        "fuzz", help="differential + metamorphic compiler fuzzing")
    fuzz_p.add_argument("--iterations", type=int, default=200,
                        help="kernels to generate (default 200)")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="campaign seed; the kernel sequence is a "
                             "pure function of it (default 0)")
    fuzz_p.add_argument("--corpus", metavar="DIR",
                        help="replay the regression entries in DIR "
                             "first, then write minimized crash "
                             "artifacts there on new failures")
    fuzz_p.add_argument("--replay-only", action="store_true",
                        help="only replay the corpus, no generation")
    fuzz_p.add_argument("--tasks", type=int, default=4,
                        help="input tasks per kernel (default 4)")
    fuzz_p.add_argument("--max-failures", type=int, default=10,
                        help="stop the campaign after this many "
                             "failures (default 10)")
    fuzz_p.add_argument("--no-metamorphic", action="store_true",
                        help="skip the Merlin transform checker")
    fuzz_p.add_argument("--no-minimize", action="store_true",
                        help="keep failing kernels unshrunk")
    fuzz_p.set_defaults(func=cmd_fuzz)

    serve_p = sub.add_parser(
        "serve", help="multi-tenant accelerator daemon (unix socket)")
    serve_p.add_argument("--socket", metavar="PATH",
                         help="unix socket path to listen on")
    serve_p.add_argument("--state", metavar="FILE",
                         help="flush the final state snapshot here on "
                              "graceful drain")
    serve_p.add_argument("--ready", metavar="FILE",
                         help="touch FILE (with the daemon pid) once "
                              "the socket is listening")
    serve_p.add_argument("--queue-depth", type=int, default=64,
                         help="bounded per-tenant queue depth; a full "
                              "queue sheds OVERLOADED (default 64)")
    serve_p.add_argument("--tenant-weight", action="append",
                         metavar="TENANT=W",
                         help="weighted-round-robin weight for a tenant "
                              "(repeatable; others get weight 1)")
    serve_p.add_argument("--replicas", type=int, default=2,
                         help="virtual boards per kernel (default 2)")
    serve_p.add_argument("--default-deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="default per-request deadline in virtual "
                              "seconds (default: unbounded)")
    serve_p.add_argument("--breaker-threshold", type=int, default=3,
                         help="consecutive hardware failures before a "
                              "kernel's circuit opens (default 3)")
    serve_p.add_argument("--breaker-reset", type=float, default=0.5,
                         help="circuit cooldown in virtual seconds "
                              "before a half-open probe (default 0.5)")
    serve_p.add_argument("--fault-plan", metavar="SPEC",
                         help="device fault schedule for every board, "
                              "e.g. 'transient=0.2,lose_after=40'")
    serve_p.add_argument("--fault-seed", type=int, default=0,
                         help="seed of the fault schedule (default 0)")
    _add_device_flag(serve_p)
    serve_p.add_argument("--fleet-devices", metavar="A,B,C",
                         help="heterogeneous board fleet: comma-separated "
                              "registered device names assigned to "
                              "replicas round-robin (placement/timing "
                              "only; results stay bit-identical)")
    _add_engine_flag(serve_p)
    sim = serve_p.add_argument_group(
        "load simulation (--simulate: no daemon, no socket; replay a "
        "deterministic multi-tenant trace on the virtual clock)")
    sim.add_argument("--simulate", action="store_true",
                     help="run the load harness in-process and print "
                          "p50/p99 latency, shed rate, utilization")
    sim.add_argument("--clients", type=int, default=100,
                     help="synthetic clients (default 100)")
    sim.add_argument("--tenants", type=int, default=4,
                     help="tenants the clients spread across (default 4)")
    sim.add_argument("--requests-per-client", type=int, default=2,
                     help="requests each client issues (default 2)")
    sim.add_argument("--mean-interarrival", type=float, default=0.05,
                     metavar="SECONDS",
                     help="mean virtual inter-arrival per client "
                          "(default 0.05; smaller = heavier load)")
    sim.add_argument("--tasks", type=int, default=6,
                     help="tasks per offload request (default 6)")
    sim.add_argument("--deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="per-request deadline, virtual seconds")
    sim.add_argument("--seed", type=int, default=0,
                     help="trace seed: same seed, same trace, same "
                          "report (default 0)")
    sim.add_argument("--no-verify", action="store_true",
                     help="skip the bit-identity check against the "
                          "JVM oracle")
    serve_p.set_defaults(func=cmd_serve)

    dataset_p = sub.add_parser(
        "dataset", help="QoR dataset factory + surrogate training")
    dataset_sub = dataset_p.add_subparsers(dest="dataset_command",
                                           required=True)

    ds_build = dataset_sub.add_parser(
        "build", help="sweep kernels x sampled configs through the "
                      "analytical estimator into a JSONL dataset")
    ds_build.add_argument("--out", default="dataset.jsonl",
                          metavar="FILE",
                          help="output JSONL path "
                               "(default dataset.jsonl)")
    ds_build.add_argument("--seed", type=int, default=0,
                          help="sweep seed: kernels and sampled "
                               "configs are a pure function of it "
                               "(default 0)")
    ds_build.add_argument("--kernels", type=int, default=4,
                          help="fuzz-generated kernels on top of the "
                               "app suite (default 4)")
    ds_build.add_argument("--configs", type=int, default=64,
                          help="sampled design configs per kernel "
                               "(default 64)")
    ds_build.add_argument("--no-apps", action="store_true",
                          help="skip the built-in application suite")
    ds_build.add_argument("--cache-dir", metavar="DIR",
                          help="persistent evaluation cache directory")
    ds_build.add_argument("--resume", action="store_true",
                          help="keep records already in --out and "
                               "continue after them")
    ds_build.set_defaults(func=cmd_dataset_build)

    ds_train = dataset_sub.add_parser(
        "train", help="fit a surrogate on a dataset and write the "
                      "model artifact")
    ds_train.add_argument("dataset", help="JSONL dataset file")
    ds_train.add_argument("--out", default="surrogate.json",
                          metavar="FILE",
                          help="artifact path (default surrogate.json)")
    ds_train.add_argument("--model", choices=("ridge", "gbdt"),
                          default="gbdt",
                          help="learner (default gbdt)")
    ds_train.add_argument("--alpha", type=float, default=1.0,
                          help="ridge regularization (default 1.0)")
    ds_train.add_argument("--trees", type=int, default=40,
                          help="GBDT boosting rounds (default 40)")
    ds_train.add_argument("--depth", type=int, default=3,
                          help="GBDT tree depth (default 3)")
    ds_train.add_argument("--min-spearman", type=float, default=None,
                          metavar="R",
                          help="fail (exit 1) if holdout spearman "
                               "lands below this floor")
    ds_train.set_defaults(func=cmd_dataset_train)

    ds_eval = dataset_sub.add_parser(
        "eval", help="fidelity of a trained artifact on a dataset")
    ds_eval.add_argument("surrogate", help="model artifact (JSON)")
    ds_eval.add_argument("dataset", help="JSONL dataset file")
    ds_eval.add_argument("--min-spearman", type=float, default=None,
                         metavar="R",
                         help="fail (exit 1) below this floor")
    ds_eval.set_defaults(func=cmd_dataset_eval)

    trace_p = sub.add_parser("trace",
                             help="inspect recorded span traces")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    summarize_p = trace_sub.add_parser(
        "summarize", help="per-stage breakdown + flamegraph of a trace")
    summarize_p.add_argument("file")
    summarize_p.add_argument("--top", type=int, default=10,
                             help="slowest spans to list (default 10)")
    summarize_p.add_argument("--no-flame", action="store_true",
                             help="skip the flamegraph section")
    summarize_p.set_defaults(func=cmd_trace_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    See the ``EXIT_*`` constants at the top of this module for the
    pinned exit-code contract.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ExplorationInterrupted, StreamInterrupted) as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except S2FAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
