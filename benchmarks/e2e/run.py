#!/usr/bin/env python3
"""End-to-end benchmark of the S2FA pipeline (see README.md here).

Driver form (one workload, one JSON object on the last stdout line)::

    python3 benchmarks/e2e/run.py --workload offload-clean --seed 7 \\
        --seconds 12 --trace 0

Whole-benchmark form (every workload, one after another, each in
fresh child processes, every metric printed by name with its unit;
exits non-zero if any op failed its oracle)::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--with-trace]

All numbers are host wall-clock (``time.perf_counter``).  Virtual-clock
statistics belong to the modelled hardware: they are hashed into each
workload's ``sim_digest`` for exact comparison between commits and are
never reported as performance.

Process model: this parent never imports ``repro``.  Every set-up and
every measurement happens in a child started in its own session, so
``setup_s`` includes interpreter start and ``import repro``, ``peak_rss_mb``
belongs to one workload only, and whatever a child leaves running is
killed with its process group on every exit path.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC_DIR = REPO_ROOT / "src"
sys.path.insert(0, str(HERE))

import e2e_stats as stats                                   # noqa: E402
from e2e_metrics import (                                   # noqa: E402
    END_TO_END_NAMES,
    PER_LAYER_NAMES,
    UNITS,
)
from e2e_workloads import (                                 # noqa: E402
    WORKLOAD_NAMES,
    make_workload,
    peak_rss_kb,
)

perf = time.perf_counter

#: Set-ups per untraced run: two probes plus the measuring child.  The
#: acceptance driver gates ``setup_s`` (work moved into set-up must show)
#: and asks for the median of several set-ups per run.
SETUP_RUNS = 3
#: Hard cap on one child (the driver allows a run 180 s in total).
CHILD_TIMEOUT_S = 150.0
RESULT_TAG = "@@e2e-result "
DEFAULT_SECONDS = 12.0


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------

def measure(workload, seconds: float) -> dict:
    """Run rounds for about ``seconds`` of wall; return the raw sample."""
    #: per round: (ops, wall seconds, {class: latencies})
    rounds: list[tuple[int, float, dict]] = []
    failed_by_class: dict[str, int] = {}
    problems: list[str] = []
    begin = perf()
    while True:
        rnd = workload.run_round(len(rounds))
        by_class: dict[str, list[float]] = {}
        for op in rnd.ops:
            by_class.setdefault(op.cls, []).append(op.seconds)
            if not op.ok:
                failed_by_class[op.cls] = failed_by_class.get(op.cls, 0) + 1
                if len(problems) < 5:
                    problems.append(op.problem)
        rounds.append((len(rnd.ops), rnd.wall, by_class))
        elapsed = perf() - begin
        # Stop when the next round would overshoot by more than half.
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    return {"rounds": rounds, "failed_by_class": failed_by_class,
            "problems": problems}


def summarize(workload, sample: dict) -> dict:
    """End-to-end metrics (all but ``setup_s``) and per-class rows.

    The three timing metrics are read from the quietest tenth of the
    run; the same statistics over the whole run travel beside them so
    ``repeat.py`` can show what the selection buys."""
    rounds = sample["rounds"]
    whole = stats.merge_classes(rounds)
    counts = {cls: len(values) for cls, values in whole.items()}
    attempted = sum(counts.values())
    failed = sum(sample["failed_by_class"].values())
    rss_kb = peak_rss_kb() + workload.extra_rss_kb()
    quiet_rounds = stats.quietest_block(rounds)
    quiet = stats.merge_classes(quiet_rounds)
    p50 = stats.class_percentiles(quiet, 50)
    tail = stats.class_percentiles(quiet, workload.tail)
    rows = [{"class": cls, "ops": counts[cls],
             "p50_ms": p50[cls] * 1e3, "tail_ms": tail[cls] * 1e3,
             "failed": sample["failed_by_class"].get(cls, 0)}
            for cls in sorted(counts)]

    def candidates(latencies) -> dict:
        return {f"p{p}": stats.class_geomean(latencies, p) * 1e3
                for p in stats.PERCENTILES}

    return {
        "metrics": {
            "ops_per_s": stats.round_median(quiet_rounds),
            "op_p50_ms": stats.geomean(p50.values()) * 1e3,
            "op_tail_ms": stats.geomean(tail.values()) * 1e3,
            "peak_rss_mb": rss_kb / 1024.0,
        },
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": sample["problems"],
        "rows": rows,
        "rounds": len(rounds),
        "quiet_rounds": len(quiet_rounds),
        "tail_percentile": workload.tail,
        "tail_supported": stats.pick_tail_percentile(counts.values()),
        "smallest_class": min(counts.values()),
        "quiet": candidates(quiet),
        "whole_run": dict(candidates(whole),
                          ops_per_s=stats.round_median(rounds)),
        "sim_digest": workload.sim_digest,
        "extras": workload.extras(),
    }


def child_main(args) -> int:
    # SIGTERM (the parent stopping us) must unwind through ``close``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = make_workload(args.workload, args.seed)
    try:
        workload.setup()
        result = {"setup_s": perf() - args.t0}
        if args.setup_only:
            pass
        elif args.trace:
            import e2e_layers

            stem = f"{args.workload}-seed{args.seed}"
            lt = e2e_layers.trace_workload(workload, args.seconds, stem)
            result.update(metrics=lt.metrics, attempted=lt.attempted,
                          failed=lt.failed, problems=lt.problems[:5],
                          files=lt.files)
        else:
            sample = measure(workload, args.seconds)
            workload.close()        # reaps the daemon: its RSS is final
            result.update(summarize(workload, sample))
    finally:
        workload.close()
    print(RESULT_TAG + json.dumps(result), flush=True)
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def _kill_group(proc: subprocess.Popen) -> None:
    """Stop a child and everything it started; wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGTERM)
    except ProcessLookupError:
        pass
    try:
        proc.wait(5.0)
    except subprocess.TimeoutExpired:
        pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_child(workload: str, seed: int, seconds: float, *,
              trace: bool = False, setup_only: bool = False) -> dict:
    """One child process; returns its result object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in
                          env.get("PYTHONPATH", "").split(os.pathsep) if p])
    argv = [sys.executable, str(HERE / "run.py"), "--child",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--t0", repr(perf())]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        _kill_group(proc)
        raise
    if proc.returncode != 0:
        _kill_group(proc)       # a dead child may leave its daemon behind
        raise RuntimeError(
            f"{workload}: child exited with code {proc.returncode}")
    for line in reversed(out.splitlines()):
        if line.startswith(RESULT_TAG):
            return json.loads(line[len(RESULT_TAG):])
    raise RuntimeError(f"{workload}: child printed no result")


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One driver-form run: the object the last stdout line carries,
    plus the human-readable extras under ``"detail"``."""
    if trace:
        result = run_child(workload, seed, seconds, trace=True)
        metrics = {name: result["metrics"][name]
                   for name in PER_LAYER_NAMES}
    else:
        setups = [run_child(workload, seed, seconds,
                            setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        result = run_child(workload, seed, seconds)
        setups.append(result["setup_s"])
        result["setups"] = setups
        metrics = dict(result["metrics"],
                       setup_s=statistics.median(setups))
        metrics = {name: metrics[name] for name in END_TO_END_NAMES}
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
        "detail": result,
    }


def environment() -> dict:
    """What the numbers were taken on (printed, never compared)."""
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    commit = "unknown"
    if (REPO_ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse",
                               "--short", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"nproc": nproc, "load1": load1, "noisy": load1 > nproc,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit}


def print_report(workload: str, outcome: dict, trace: bool) -> None:
    detail = outcome["detail"]
    print(f"== {workload} ({'traced' if trace else 'untraced'}) ==")
    for name, cell in outcome["metrics"].items():
        if not trace or cell["value"]:
            print(f"  {name:34s} {cell['value']:>16.6g} {cell['unit']}")
    if trace:
        zero = sum(1 for cell in outcome["metrics"].values()
                   if not cell["value"])
        print(f"  ({zero} per-layer metrics read 0: layers this "
              f"workload never enters)")
        for path in detail.get("files", []):
            print(f"  trace file: {path}")
    else:
        print(f"  {'failed_share':34s} "
              f"{detail['failed_share']:>16.6g} ratio")
        print(f"  set-ups {['%.3f' % s for s in detail['setups']]} s; "
              f"{detail['rounds']} rounds, timing read from the quietest "
              f"{detail['quiet_rounds']}; tail = "
              f"p{detail['tail_percentile']} (sample supports "
              f"p{detail['tail_supported']}); sim_digest "
              f"{detail['sim_digest']}")
        print(f"  whole run: ops_per_s "
              f"{detail['whole_run']['ops_per_s']:.6g}, op_p50_ms "
              f"{detail['whole_run']['p50']:.6g}")
        for name, value in detail["extras"].items():
            print(f"  {name} {value:.3f}")
        for row in detail["rows"]:
            print(f"    {row['class']:12s} ops {row['ops']:6d}  "
                  f"p50 {row['p50_ms']:10.3f} ms  "
                  f"tail {row['tail_ms']:10.3f} ms  "
                  f"failed {row['failed']}")
    for problem in detail.get("problems", []):
        print(f"  ORACLE FAILURE: {problem}")


def run_all(seed: int, seconds: float, with_trace: bool) -> int:
    """The whole benchmark: every workload, one after another."""
    env = environment()
    print("environment: " + json.dumps(env))
    if env["noisy"]:
        print(f"NOISY: 1-min load average {env['load1']:.2f} exceeds "
              f"nproc {env['nproc']}; treat these numbers as unreliable")
    record = {"environment": env, "seed": seed, "seconds": seconds,
              "workloads": {}}
    failed = False
    for workload in WORKLOAD_NAMES:
        passes = [(False, seconds)]
        if with_trace:
            passes.append((True, max(1.0, seconds / 4)))
        for trace, length in passes:
            outcome = run_workload(workload, seed, length, trace)
            print_report(workload, outcome, trace)
            failed |= not outcome["correct"]
            entry = record["workloads"].setdefault(workload, {})
            entry["per_layer" if trace else "end_to_end"] = \
                outcome["metrics"]
            entry["traced_ok" if trace else "ok"] = outcome["correct"]
            if not trace:
                entry["sim_digest"] = outcome["detail"]["sim_digest"]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "latest.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out / 'latest.json'}")
    if failed:
        print("FAILED: at least one op failed its oracle")
    return 1 if failed else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--with-trace", action="store_true",
                        help="whole-benchmark form: also run the traced "
                             "pass of every workload at quarter length")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        if args.t0 is None:
            args.t0 = perf()
        return child_main(args)
    if not (SRC_DIR / "repro" / "__init__.py").exists():
        print(f"error: {SRC_DIR}/repro is missing; the benchmark "
              f"measures the program in this checkout and cannot run "
              f"without it", file=sys.stderr)
        return 2
    # SIGTERM must unwind through the finally blocks that reap children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.with_trace)
    if environment()["noisy"]:
        print("NOISY: load average exceeds nproc", file=sys.stderr)
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print_report(args.workload, outcome, bool(args.trace))
    outcome.pop("detail")
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
