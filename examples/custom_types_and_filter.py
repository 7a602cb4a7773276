#!/usr/bin/env python
"""Extensions demo: custom composite classes + the filter operator.

The paper's Section 3.3 limits kernels to primitives and the composite
classes S2FA ships, leaving "other classes" to a user-provided class
template, and its future work asks for "more object-oriented constructs"
and more RDD operators.  This example exercises both extensions:

* a record class ``Reading(sensor: Int, value: Float, weight: Float)``
  flattened automatically to per-field accelerator ports,
* a ``filter`` kernel offloaded through Blaze (the device computes
  keep-flags; the host keeps the surviving objects).

Run:  python examples/custom_types_and_filter.py
"""

from repro import S2FASession
from repro.blaze import BlazeRuntime
from repro.compiler import compile_kernel
from repro.merlin import DesignConfig, LoopConfig
from repro.spark import SparkContext

KERNEL = """
class Reading(sensor: Int, value: Float, weight: Float)

class Anomaly extends Accelerator[Reading, Boolean] {
  val id: String = "anomaly"
  val threshold: Float = 4.0f
  def call(in: Reading): Boolean = {
    val score = in.value * in.weight
    val bounded = math.min(math.abs(score), 100.0f)
    bounded > threshold && in.sensor >= 0
  }
}
"""


def main() -> None:
    print("=" * 72)
    print("Generated HLS C: the Reading record flattened to three ports")
    print("=" * 72)
    print(S2FASession().hls_c(KERNEL, pattern="filter"))

    compiled = compile_kernel(KERNEL, pattern="filter", batch_size=1024)
    config = DesignConfig(
        loops={"L0": LoopConfig(pipeline="on", parallel=4)},
        bitwidths={leaf.name: 128 for leaf in compiled.layout.leaves})

    sc = SparkContext(default_parallelism=4)
    blaze = BlazeRuntime(sc)
    blaze.register(compiled, config)

    import random
    rng = random.Random(42)
    readings = [(rng.randrange(-2, 40), rng.uniform(-10, 10),
                 rng.uniform(0.1, 2.0)) for _ in range(5000)]

    anomalies = blaze.wrap(sc.parallelize(readings)).filter_acc(
        "anomaly").collect()

    expected = [r for r in readings
                if min(abs(r[1] * r[2]), 100.0) > 4.0 and r[0] >= 0]
    assert anomalies == expected, "offloaded filter disagrees with host"

    print("=" * 72)
    print(f"{len(readings)} readings -> {len(anomalies)} anomalies "
          f"({blaze.metrics.accel_tasks} tasks on the accelerator, "
          f"{blaze.metrics.accel_seconds * 1e3:.3f} ms modelled)")
    sample = ", ".join(
        f"(s{r[0]}, {r[1]:.2f}, w{r[2]:.2f})" for r in anomalies[:3])
    print(f"first anomalies: {sample}")


if __name__ == "__main__":
    main()
