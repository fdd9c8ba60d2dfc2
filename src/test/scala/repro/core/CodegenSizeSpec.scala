package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.codegen.CodeGenerator
import org.apache.spark.sql.execution.WholeStageCodegenExec
import repro.SparkSpec
import repro.data.{ClusterData, UciLike}

/** The row passes over high-dimensional data must compile to methods the
  * JIT compiles.
  *
  * HotSpot leaves any method over 8 000 bytes of bytecode interpreted
  * (`-XX:+DontCompileHugeMethods`, `HugeMethodLimit`). Whole-stage codegen
  * puts a stage into one Java method, so every stage of the plans that touch
  * every row must stay under that size: the quantization projection that
  * both Grid passes read at d = 33 and d = 64, the label plan the harness
  * collects at d = 33 and d = 64, and the full label and centroid plans at
  * d = 33.
  */
class CodegenSizeSpec extends SparkSpec {

  private val HugeMethodLimit = 8000

  /** Largest generated method over every whole-stage-codegen subtree of the
    * plan. Adaptive execution is off while planning so that the codegen
    * stages exist before anything runs.
    */
  private def maxMethodSize(df: => DataFrame): Int = {
    val key = "spark.sql.adaptive.enabled"
    val old = spark.conf.get(key)
    spark.conf.set(key, "false")
    try {
      val stages = df.queryExecution.executedPlan.collect { case w: WholeStageCodegenExec => w }
      assert(stages.nonEmpty, "plan has no whole-stage codegen")
      stages.map(w => CodeGenerator.compile(w.doCodeGen()._2)._2.maxMethodCodeSize).max
    } finally spark.conf.set(key, old)
  }

  private lazy val x = UciLike.unitScale(UciLike.dermatology().x)
  private def frame = {
    assert(x(0).length == 33)
    ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
  }
  private val cols = (0 until 33).map(i => s"f$i")

  /** A 64-D frame: 2 000 rows around four tight Gaussian centres. */
  private lazy val frame64 = {
    val rnd = new scala.util.Random(64)
    val centres = Array.fill(4)(Array.fill(64)(rnd.nextDouble()))
    val x64 = Array.tabulate(2000)(i => centres(i % 4).map(_ + 0.01 * rnd.nextGaussian()))
    ClusterData.toDFn(spark, x64, Array.fill(x64.length)(0))
  }
  private val cols64 = (0 until 64).map(i => s"f$i")

  private def check(plan: String, d: Int = 33)(df: => DataFrame): Unit =
    test(s"the $plan plan on d = $d compiles to methods under $HugeMethodLimit bytes") {
      val size = maxMethodSize(df)
      assert(size < HugeMethodLimit, s"$plan: largest generated method is $size bytes")
    }

  check("coordinate")(Grid.coordinateRows(frame, cols))
  check("coordinate", 64)(Grid.coordinateRows(frame64, cols64))
  check("label")(AdaWave.clusterAuto(frame, cols).points)
  // The plan the harness collects; the full `points` plan is still over the
  // limit at d = 64 (ROADMAP item 3).
  check("harness label")(AdaWave.clusterAuto(frame, cols).points.select("id", AdaWave.ClusterCol))
  check("harness label", 64)(
    AdaWave.clusterAuto(frame64, cols64).points.select("id", AdaWave.ClusterCol))
  check("label + nearest-centroid")(AdaWave.clusterAuto(frame, cols, assignNoise = true).points)
  check("centroid")(AdaWave.centroidRows(AdaWave.clusterAuto(frame, cols).points, cols))
}
