"""Headline claims: the abstract/conclusion numbers in one table.

"Evaluation results show that our generated FPGA designs achieve up to
49.9x performance improvement for several machine learning applications
compared to their corresponding implementations on the JVM ... our
generated FPGA kernels reach 1225.2x and 49.9x speedup for string
processing and machine learning applications respectively."

And the automation claim: "S2FA only requires a few hours including
bit-stream generation to finish a FPGA design" — the flow is one call,
with the DSE converging on its own.
"""

import math
import statistics

from common import (
    APP_NAMES,
    aggregate_stats,
    best_design,
    jvm_seconds_per_task,
    s2fa_run,
    speedup_over_jvm,
)

from repro.apps import get_app
from repro.report import evaluation_stats_table, format_table

ML = ("KMeans", "KNN", "LR", "SVM", "LLS")
STRINGS = ("AES", "S-W")


def test_headline_claims(benchmark):
    def run():
        speedups = {}
        for name in APP_NAMES:
            _, hls = best_design(name)
            speedups[name] = speedup_over_jvm(name, hls)
        return speedups

    speedups = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        ["max ML speedup", "49.9x",
         f"{max(speedups[n] for n in ML):.1f}x"],
        ["max string-processing speedup", "~1225x",
         f"{max(speedups[n] for n in STRINGS):.1f}x"],
        ["every kernel compiled automatically", "8/8",
         f"{sum(1 for n in APP_NAMES if math.isfinite(speedups[n]))}/8"],
        ["every kernel beats the JVM", "8/8",
         f"{sum(1 for n in APP_NAMES if speedups[n] > 1)}/8"],
        ["DSE hours per kernel (virtual)", "~1.9 h",
         f"{statistics.mean(s2fa_run(n).termination_minutes for n in APP_NAMES) / 60:.1f} h"],
    ]
    print()
    print(format_table(["Claim", "Paper", "Measured"], rows,
                       title="Headline claims"))

    # The orderings the conclusions rest on.
    assert min(speedups[n] for n in STRINGS) \
        > max(speedups[n] for n in ML), \
        "string processing must dominate ML"
    assert all(speedups[n] > 1 for n in APP_NAMES)
    assert max(speedups[n] for n in ML) > 10, \
        "ML kernels should gain an order of magnitude"
    assert max(speedups[n] for n in STRINGS) > 100, \
        "string kernels should gain two orders of magnitude"

    # Automation: every kernel's flow ran end to end with zero
    # per-application pragma/interface engineering.
    for name in APP_NAMES:
        spec = get_app(name)
        assert spec.compile().loop_labels, f"{name} did not compile"

    stats = aggregate_stats()
    print()
    print(evaluation_stats_table(stats))

    benchmark.extra_info["speedups"] = {
        name: (value if math.isfinite(value) else None)
        for name, value in speedups.items()}
    benchmark.extra_info["evaluation"] = {
        key: stats[key] for key in ("estimates", "memory_hits",
                                    "store_hits", "hit_rate")}
