"""Command-line interface: ``python -m repro.cli`` (or the ``s2fa`` script).

The CLI is a view of :mod:`repro.config`: a config-backed flag takes its
type, default, spelling and help from its dataclass field
(:func:`_add_flags`), a flag the user did not give stays out of the
namespace, and :func:`_config` builds each ``*Config`` from exactly what
was typed, so the dataclass defaults are the only defaults.  Every verb
hands its configs to an :class:`~repro.s2fa.S2FASession` (or the
dataset / serve / fuzz entry point) and prints the result; ``s2fa
<verb> --help`` is the reference for what each verb does and takes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .compiler.interface import LayoutConfig
from .config import (
    DatasetConfig,
    ExploreConfig,
    RuntimeConfig,
    ServeConfig,
    StreamConfig,
)
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
# * EXIT_INTERRUPTED — the run stopped at a batch boundary with its
#                      progress durable: rerun ``explore`` with the same
#                      ``--cache-dir`` (``stream`` with ``--resume``) to
#                      finish (the value is BSD's EX_TEMPFAIL, the
#                      conventional "transient failure, retry" code).
# ----------------------------------------------------------------------

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_ERROR = 3
EXIT_INTERRUPTED = 75


# ----------------------------------------------------------------------
# argv -> values (``type=`` callables: argparse reports a bad value)
# ----------------------------------------------------------------------

def _key_value(text: str) -> tuple:
    """``"in._2=16"`` -> ``("in._2", 16)`` (``PATH=N``, ``TENANT=W``)."""
    key, sep, value = text.partition("=")
    try:
        if not sep:
            raise ValueError(text)
        return key, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NAME=INTEGER, got {text!r}") from None


def _name_list(text: str) -> tuple:
    """``"a,b,c"`` -> ``("a", "b", "c")`` (the device registry validates
    the names downstream with a typed error listing the valid ones)."""
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _layout(args: argparse.Namespace) -> LayoutConfig:
    lengths = dict(args.length or [])
    return LayoutConfig(lengths=lengths,
                        default_string_length=lengths.pop("string", 128))


def _usage(args: argparse.Namespace, message: str):
    """Bad input argparse could not see: exit ``EXIT_USAGE`` with
    ``s2fa <verb>: error: <message>`` on stderr."""
    args.parser.error(message)


def _read_source(args: argparse.Namespace) -> str:
    source = Path(args.kernel)
    if not source.exists():
        _usage(args, f"no such kernel file: {args.kernel}")
    return source.read_text()


def _lookup(args: argparse.Namespace, registry_get):
    try:
        return registry_get(args.app)
    except KeyError as exc:
        _usage(args, exc.args[0])


# ----------------------------------------------------------------------
# argv -> config translation
# ----------------------------------------------------------------------

def _config(cls, args: argparse.Namespace):
    """The ``cls`` instance the command line describes.

    Flags the user gave land in the field :func:`_add_flags` derived
    them from; every other field keeps its dataclass default, and a
    nested config field (``runtime=``) is built the same way.
    """
    given = {}
    for dest, (owner, name) in args.fields.items():
        if owner is cls and hasattr(args, dest):
            value = getattr(args, dest)
            # a repeatable NAME=INTEGER flag arrives as a list of pairs
            given[name] = dict(value) if isinstance(value, list) else value
    for field in dataclasses.fields(cls):
        if dataclasses.is_dataclass(field.default_factory):
            given[field.name] = _config(field.default_factory, args)
    return cls(**given)


def _session(args: argparse.Namespace):
    from .s2fa import S2FASession

    return S2FASession(explore=_config(ExploreConfig, args),
                       runtime=_config(RuntimeConfig, args),
                       trace=bool(getattr(args, "trace", None)))


def _export_trace(session, args: argparse.Namespace) -> None:
    if args.trace:
        spans = session.export_trace(args.trace)
        print(f"trace written to {args.trace} ({spans} spans)")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_compile(args: argparse.Namespace) -> int:
    """``s2fa compile``: Scala kernel file -> generated HLS C."""
    source = _read_source(args)
    print(_session(args).hls_c(
        source,
        layout_config=_layout(args),
        pattern=args.pattern,
        batch_size=args.batch_size))
    return 0


def _print_explore_summary(build, run) -> None:
    print(f"accelerator id    : {build.accel_id}")
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
    source = _read_source(args)
    session = _session(args)
    build = session.explore(
        source,
        layout_config=_layout(args),
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
    from .apps import get_app

    spec = _lookup(args, get_app)
    session = _session(args)
    device = None
    if args.devices:
        sweep = session.explore_devices(
            spec, list(args.devices), qor_target=args.qor_target)
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

    spec = _lookup(args, get_app)
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
    from .apps import get_app
    from .report import blaze_metrics_table

    spec = _lookup(args, get_app)
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
            _usage(args, "--replay-only requires --corpus DIR")
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


def cmd_stream(args: argparse.Namespace) -> int:
    """``s2fa stream``: run a streaming pipeline to completion."""
    from .apps import get_stream_app

    spec = _lookup(args, get_stream_app)
    session = _session(args)
    outcome = session.stream(spec, _config(StreamConfig, args))
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


def cmd_serve(args: argparse.Namespace) -> int:
    """``s2fa serve``: the multi-tenant daemon (or its load harness)."""
    config = _config(ServeConfig, args)
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
        _usage(args, "serve needs --socket PATH (or --simulate)")
    from .serve.daemon import run_daemon

    print(f"s2fa serve: listening on {args.socket} "
          f"(queue depth {config.queue_depth}, "
          f"{config.replicas} replicas/kernel)")
    return run_daemon(args.socket, config, state_path=args.state,
                      ready_path=args.ready)


def _report_fidelity(report, floor) -> int:
    """Print the fidelity report; ``EXIT_FAILURE`` below ``floor``."""
    print(f"fidelity (holdout): spearman {report.spearman:.3f}, "
          f"mse {report.mse:.3f} "
          f"({report.count} records, {report.infeasible} infeasible)")
    for k, recall in sorted(report.top_k_recall.items()):
        print(f"  top-{k} recall   : {recall:.2f}")
    if floor is not None and report.spearman < floor:
        print(f"FAIL: spearman {report.spearman:.3f} < floor {floor}",
              file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_dataset_build(args: argparse.Namespace) -> int:
    """``s2fa dataset build``: sweep kernels x configs into JSONL."""
    from .dataset import build_dataset

    report = build_dataset(_config(DatasetConfig, args))
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
    return _report_fidelity(report, args.min_spearman)


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
    return _report_fidelity(report, args.min_spearman)


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    """``s2fa trace summarize``: per-stage breakdown of a trace file."""
    from .obs import load_trace, summarize

    if not Path(args.file).exists():
        _usage(args, f"no such trace file: {args.file}")
    try:
        roots = load_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(summarize(roots, top=args.top, flame=not args.no_flame))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

#: argparse ``type=`` per field annotation (``Optional[...]`` stripped).
_TYPES = {"int": int, "float": float, "str": None, "tuple": _name_list,
          "Mapping[str, int]": _key_value}


def _add_flags(parser: argparse.ArgumentParser, cls, *names: str) -> None:
    """Attach the flags of ``cls``'s fields ``names`` to ``parser``.

    Type and default are the field's; spelling, metavar and help are its
    ``_flag`` metadata (see :mod:`repro.config`).  ``default=SUPPRESS``
    keeps an unset flag out of the namespace so :func:`_config` leaves
    the field to the dataclass; the parser's ``fields`` default records
    which field each flag's ``dest`` feeds.
    """
    fields = parser.get_default("fields")
    for name in names:
        field = cls.__dataclass_fields__[name]
        meta = field.metadata
        help = meta["help"]() if callable(meta["help"]) else meta["help"]
        kind = field.type
        if kind.startswith("Optional["):
            kind = kind[len("Optional["):-1]
        if kind == "bool":
            spec = {"action": "store_false" if field.default
                    else "store_true"}
        else:
            spec = {"type": _TYPES[kind], "metavar": meta.get("metavar")}
            if kind.startswith("Mapping"):
                spec["action"] = "append"
            if field.default not in (None, (), dataclasses.MISSING):
                shown = (f"{field.default:g}" if kind == "float"
                         else field.default)
                help += f" (default {shown})"
        action = parser.add_argument(
            meta.get("flag") or "--" + name.replace("_", "-"),
            default=argparse.SUPPRESS, help=help, **spec)
        fields[action.dest] = (cls, name)


#: Flags that are not config fields but are taken by several verbs.
_SHARED = {
    "--length": dict(action="append", type=_key_value, metavar="PATH=N",
                     help="capacity of a variable-length leaf, e.g. "
                          "--length in._2=16 --length out=16 "
                          "(string=N sets the default string length)"),
    "--pattern": dict(default="map", choices=("map", "reduce", "filter")),
    "--batch-size": dict(type=int, default=1024),
    "--tasks": dict(type=int, default=64,
                    help="workload size (default 64)"),
    "--data-seed": dict(type=int, default=21,
                        help="workload generator seed (default 21)"),
    "--metrics": dict(action="store_true",
                      help="print the Blaze runtime metrics table"),
    "--trace": dict(metavar="FILE",
                    help="record a span trace of the whole run (Chrome "
                         "trace_event JSON; *.jsonl for the span log)"),
    "--min-spearman": dict(type=float, default=None, metavar="R",
                           help="fail (exit 1) if holdout spearman "
                                "lands below this floor"),
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SHARED[flag])


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line interface."""
    parser = argparse.ArgumentParser(
        prog="s2fa",
        description="S2FA: Spark-to-FPGA-Accelerator automation "
                    "(DAC'18 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, func, help, sub=sub):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, parser=p, fields={})
        return p

    p = verb("compile", cmd_compile, "Scala kernel -> HLS C")
    p.add_argument("kernel")
    _add_shared(p, "--length", "--pattern", "--batch-size")

    p = verb("explore", cmd_explore, "compile + design space exploration")
    p.add_argument("kernel")
    _add_shared(p, "--length", "--pattern", "--batch-size")
    _add_flags(p, ExploreConfig, "seed", "time_limit_minutes", "cache_dir",
               "device", "surrogate", "prune_fraction")
    p.add_argument("--emit-c", action="store_true",
                   help="print the annotated HLS C")
    p.add_argument("--json", metavar="FILE",
                   help="write the DSE run (trace, partitions, best "
                        "design) as JSON")
    _add_shared(p, "--trace")

    p = verb("dse", cmd_dse, "end-to-end pipeline: explore a built-in app "
                             "and deploy the explored design on Blaze")
    p.add_argument("app")
    _add_flags(p, ExploreConfig, "seed", "time_limit_minutes", "cache_dir",
               "device")
    p.add_argument("--devices", metavar="A,B,C", type=_name_list,
                   help="comma-separated registered device names: "
                        "explore (device x config) and deploy on the "
                        "cheapest board meeting --qor-target")
    p.add_argument("--qor-target", type=float, default=None,
                   metavar="CYCLES",
                   help="QoR bar for --devices: best design must reach "
                        "this normalized cycle count or better "
                        "(default: any feasible design)")
    _add_flags(p, ExploreConfig, "surrogate", "prune_fraction")
    _add_shared(p, "--tasks", "--data-seed")
    _add_flags(p, RuntimeConfig, "partitions")
    _add_shared(p, "--metrics", "--trace")

    verb("apps", cmd_apps, "list built-in applications")

    p = verb("report", cmd_report, "HLS report of a built-in app")
    p.add_argument("app")

    p = verb("run", cmd_run, "deploy a built-in app on the Blaze runtime")
    p.add_argument("app")
    _add_shared(p, "--tasks", "--data-seed")
    _add_flags(p, RuntimeConfig, "partitions", "fault_plan", "fault_seed")
    _add_flags(p, ExploreConfig, "device")
    _add_shared(p, "--trace")

    p = verb("stream", cmd_stream, "run a streaming pipeline "
             "(micro-batched, exactly-once) on the Blaze runtime")
    p.add_argument("app",
                   help="streaming app: lr-stream, aes-window, or log-filter")
    _add_flags(p, StreamConfig, "batch_records", "interval_seconds",
               "total_records", "max_batches", "data_seed",
               "max_lag_intervals", "sink")
    _add_flags(p, RuntimeConfig, "partitions", "fault_plan", "fault_seed")
    _add_flags(p, StreamConfig, "checkpoint_dir", "resume")
    _add_shared(p, "--metrics", "--trace")

    p = verb("fuzz", cmd_fuzz,
             "differential + metamorphic compiler fuzzing")
    p.add_argument("--iterations", type=int, default=200,
                   help="kernels to generate (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; the kernel sequence is a pure "
                        "function of it (default 0)")
    p.add_argument("--corpus", metavar="DIR",
                   help="replay the regression entries in DIR first, "
                        "then write minimized crash artifacts there on "
                        "new failures")
    p.add_argument("--replay-only", action="store_true",
                   help="only replay the corpus, no generation")
    p.add_argument("--tasks", type=int, default=4,
                   help="input tasks per kernel (default 4)")
    p.add_argument("--max-failures", type=int, default=10,
                   help="stop the campaign after this many failures "
                        "(default 10)")
    p.add_argument("--no-metamorphic", action="store_true",
                   help="skip the Merlin transform checker")
    p.add_argument("--no-minimize", action="store_true",
                   help="keep failing kernels unshrunk")

    p = verb("serve", cmd_serve,
             "multi-tenant accelerator daemon (unix socket)")
    p.add_argument("--socket", metavar="PATH",
                   help="unix socket path to listen on")
    p.add_argument("--state", metavar="FILE",
                   help="flush the final state snapshot here on graceful "
                        "drain")
    p.add_argument("--ready", metavar="FILE",
                   help="touch FILE (with the daemon pid) once the socket "
                        "is listening")
    _add_flags(p, ServeConfig, "queue_depth", "tenant_weights", "replicas",
               "default_deadline_s", "breaker_threshold",
               "breaker_reset_s")
    _add_flags(p, RuntimeConfig, "fault_plan", "fault_seed")
    _add_flags(p, ServeConfig, "device", "fleet_devices")
    # The load profile lives in repro.serve.loadgen, which the parser
    # must not import (``s2fa --help`` stays free of the serve stack),
    # so this group spells its defaults out.
    sim = p.add_argument_group(
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
                     help="skip the bit-identity check against the JVM "
                          "oracle")

    dataset_sub = sub.add_parser(
        "dataset", help="QoR dataset factory + surrogate training"
    ).add_subparsers(dest="dataset_command", required=True)

    p = verb("build", cmd_dataset_build,
             "sweep kernels x sampled configs through the analytical "
             "estimator into a JSONL dataset", dataset_sub)
    _add_flags(p, DatasetConfig, "out", "seed", "kernels", "configs",
               "apps", "cache_dir", "resume")

    p = verb("train", cmd_dataset_train, "fit a surrogate on a dataset "
             "and write the model artifact", dataset_sub)
    p.add_argument("dataset", help="JSONL dataset file")
    p.add_argument("--out", default="surrogate.json", metavar="FILE",
                   help="artifact path (default surrogate.json)")
    p.add_argument("--model", choices=("ridge", "gbdt"), default="gbdt",
                   help="learner (default gbdt)")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="ridge regularization (default 1.0)")
    p.add_argument("--trees", type=int, default=40,
                   help="GBDT boosting rounds (default 40)")
    p.add_argument("--depth", type=int, default=3,
                   help="GBDT tree depth (default 3)")
    _add_shared(p, "--min-spearman")

    p = verb("eval", cmd_dataset_eval,
             "fidelity of a trained artifact on a dataset", dataset_sub)
    p.add_argument("surrogate", help="model artifact (JSON)")
    p.add_argument("dataset", help="JSONL dataset file")
    _add_shared(p, "--min-spearman")

    trace_sub = sub.add_parser(
        "trace", help="inspect recorded span traces"
    ).add_subparsers(dest="trace_command", required=True)
    p = verb("summarize", cmd_trace_summarize,
             "per-stage breakdown + flamegraph of a trace", trace_sub)
    p.add_argument("file")
    p.add_argument("--top", type=int, default=10,
                   help="slowest spans to list (default 10)")
    p.add_argument("--no-flame", action="store_true",
                   help="skip the flamegraph section")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (``EXIT_*``)."""
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
