#!/usr/bin/env python3
"""Repeatability check: is the benchmark steady enough for its bounds?

Runs every workload as two independent sets of ``--runs`` untraced runs,
each run on another seed, exactly the way the acceptance driver does::

    python3 benchmarks/e2e/repeat.py [--runs 10] [--seconds 10] > REPEAT.txt

For each end-to-end metric x workload it prints both sets' median and
quartiles, the quartile spread (Q3 - Q1) / median, and by how much the
second set's median is worse than the first's.  It exits non-zero when

* a spread (other than ``setup_s``'s) exceeds the metric's bound, or
* the second median is worse than the first by more than the bound
  (every metric, ``setup_s`` too),

and flags — without failing — every spread above a third of its bound,
the margin the acceptance driver asks a benchmark to keep.  A workload
that ``BENCHMARK.json`` does not list (``stream-durable``) is measured
and reported the same way but never fails the check.  Under each
workload it also prints how every candidate tail percentile repeated
(the evidence for the workload's fixed ``tail``) and how the same runs
would have repeated with whole-run statistics (the evidence for reading
the timing metrics from the quietest tenth of a run).  The committed
``REPEAT.txt`` is this script's output; ``evidence/`` holds earlier ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench                                         # noqa: E402
from e2e_metrics import END_TO_END                          # noqa: E402
from e2e_stats import (                                     # noqa: E402
    PERCENTILES,
    quartile_spread,
    samples_beyond,
)
from e2e_workloads import WORKLOADS                         # noqa: E402

GATED = {w["name"] for w in json.loads(
    (bench.REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]}
TAILS = {cls.name: cls.tail for cls in WORKLOADS}


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (<= 0: not)."""
    delta = second - first if better == "lower" else first - second
    return delta / first


def collect(workload: str, seeds, seconds: float) -> dict:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        outcome = bench.run_workload(workload, seed, seconds, trace=False)
        if not outcome["correct"]:
            raise SystemExit(f"{workload} seed {seed}: oracle failures "
                             f"{outcome['detail']['problems']}")
        for name, cell in outcome["metrics"].items():
            values.setdefault(name, []).append(cell["value"])
        detail = outcome["detail"]
        for scope in ("quiet", "whole_run"):
            for name, value in detail[scope].items():
                values.setdefault(f"{scope}.{name}", []).append(value)
        values.setdefault("smallest_class", []).append(
            detail["smallest_class"])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set (>= 3)")
    parser.add_argument("--seconds", type=float,
                        default=bench.DEFAULT_SECONDS)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workload", action="append",
                        choices=bench.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")

    print("environment: " + str(bench.environment()))
    print(f"two sets of {args.runs} runs, {args.seconds:g} s each, "
          f"seeds from {args.first_seed}")
    verdict = 0
    for workload in args.workload or bench.WORKLOAD_NAMES:
        sets = [collect(workload,
                        range(args.first_seed + k * args.runs,
                              args.first_seed + (k + 1) * args.runs),
                        args.seconds) for k in range(2)]
        gated = workload in GATED
        print(f"\n== {workload}{'' if gated else ' (ungated)'} ==")
        print(f"{'metric':12s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
        for name, unit, better, bound, _ in END_TO_END:
            medians = []
            for k, values in enumerate(sets):
                q1, _, q3 = statistics.quantiles(values[name], n=4)
                median = statistics.median(values[name])
                spread = quartile_spread(values[name])
                medians.append(median)
                flag = "ok"
                if name != "setup_s" and spread > bound:
                    flag, verdict = "SPREAD EXCEEDS BOUND", verdict | gated
                elif name != "setup_s" and spread > bound / 3:
                    flag = "above a third of the bound"
                print(f"{name:12s} {k + 1:3d} {median:12.5g} {q1:12.5g} "
                      f"{q3:12.5g} {spread:8.4f} {bound:6.2f}  {flag}")
            drift = worse_by(medians[0], medians[1], better)
            flag = "ok"
            if drift > bound:
                flag, verdict = "SETS DISAGREE", verdict | gated
            print(f"{name:12s} 2-1 second median worse by "
                  f"{drift:+.4f} of the first ({unit})  {flag}")
        smallest = min(n for values in sets
                       for n in values["smallest_class"])

        def line(label: str, key: str) -> None:
            cells = "  ".join(
                f"set {k + 1} median {statistics.median(v[key]):10.5g}"
                f" spread {quartile_spread(v[key]):6.4f}"
                for k, v in enumerate(sets))
            print(f"  {label:22s} {cells}")

        print(f"tail candidates in the quietest tenth (class geomean, ms); "
              f"the workload reports p{TAILS[workload]}; smallest class "
              f"in any whole run: {smallest} ops")
        for p in PERCENTILES:
            line(f"p{p} ({samples_beyond(smallest, p):.1f} beyond)",
                 f"quiet.p{p}")
        print("the same runs without the quietest-tenth selection "
              "(whole-run statistics)")
        line("ops_per_s (op/s)", "whole_run.ops_per_s")
        for p in PERCENTILES:
            line(f"p{p} (ms)", f"whole_run.p{p}")
    print("\nPASS" if verdict == 0 else "\nFAIL")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
