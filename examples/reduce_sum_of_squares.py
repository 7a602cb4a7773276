#!/usr/bin/env python
"""The reduce operator: offloading an RDD fold to the accelerator.

Spark's ``rdd.map(sq).reduce(_ + _)`` becomes two accelerators: a map
kernel squaring each element and a reduce kernel folding the partial
stream on chip (Section 3.2's template machinery covers both operator
kinds).

Run:  python examples/reduce_sum_of_squares.py
"""

from repro.blaze import BlazeRuntime
from repro.compiler import compile_kernel
from repro.merlin import DesignConfig, LoopConfig
from repro.spark import SparkContext

SQUARE = """
class Square extends Accelerator[Double, Double] {
  val id: String = "square"
  def call(in: Double): Double = in * in
}
"""

ADD = """
class Add extends Accelerator[Double, Double] {
  val id: String = "add"
  def call(a: Double, b: Double): Double = a + b
}
"""


def main() -> None:
    sc = SparkContext(default_parallelism=4)
    blaze = BlazeRuntime(sc)

    square = compile_kernel(SQUARE, batch_size=4096)
    add = compile_kernel(ADD, pattern="reduce", batch_size=4096)
    for compiled in (square, add):
        blaze.register(compiled, DesignConfig(
            loops={"L0": LoopConfig(pipeline="on", parallel=4)},
            bitwidths={leaf.name: 512
                       for leaf in compiled.layout.leaves}))

    values = [v / 16.0 for v in range(4096)]
    rdd = sc.parallelize(values).cache()

    squared = blaze.wrap(rdd).map_acc("square")
    total = blaze.wrap(squared).reduce_acc("add")

    expected = sum(v * v for v in values)
    print(f"sum of squares (accelerated): {total:.6f}")
    print(f"sum of squares (host)       : {expected:.6f}")
    assert abs(total - expected) < 1e-6 * max(1.0, expected)
    print(f"offloaded tasks: {blaze.metrics.accel_tasks}, modelled time "
          f"{blaze.metrics.accel_seconds * 1e3:.3f} ms")

    from repro import S2FASession
    print()
    print("Generated reduce kernel:")
    print(S2FASession().hls_c(ADD, pattern="reduce"))


if __name__ == "__main__":
    main()
