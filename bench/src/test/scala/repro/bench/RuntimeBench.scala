package repro.bench

import repro.SparkSpec
import repro.harness.RuntimeHarness

/** Regenerates Fig. 10 as a table: wall-clock runtime vs n at 75 % noise.
  * Absolute times are incomparable with the paper's mixed-language setup;
  * the asymptotic trend is the target.
  */
class RuntimeBench extends SparkSpec {

  test("Fig. 10 — runtime vs n") {
    val sizes = sys.env.get("ADAWAVE_BENCH_SIZES")
      .map(_.split(",").map(_.trim.toInt).toSeq)
      .getOrElse(Seq(7000, 14000, 28000, 56000, 112000))
    // Discarded warm-up: the first calls pay JIT and Spark start-up, which
    // would inflate the first row, the growth gate's divisor. Passes over
    // the two smallest sizes repeat until two in a row agree on AdaWave's
    // times within 10 %, or five have run.
    def warmUp() = RuntimeHarness.run(spark, sizes.take(2)).map(_.millis("AdaWave"))
    Iterator.continually(warmUp()).sliding(2).take(4).find { case Seq(a, b) =>
      a.zip(b).forall { case (p, q) => math.abs(p - q) <= 0.1 * q }
    }
    val rows = RuntimeHarness.run(spark, sizes)
    println(RuntimeHarness.render(rows))

    // AdaWave's cost is dominated by the O(N) quantization scan + O(M) grid
    // work: time from smallest to largest n must grow far slower than the
    // n² baselines would (loose 3x-linear bound on the growth ratio).
    val first = rows.head
    val last = rows.last
    val nRatio = last.n.toDouble / first.n
    val tRatio = last.millis("AdaWave") / math.max(first.millis("AdaWave"), 1.0)
    assert(tRatio < nRatio * 3, s"AdaWave grew ${tRatio}x over ${nRatio}x input")
  }
}
